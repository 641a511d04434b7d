"""Fastpath-vs-networkx agreement for the CSR measurement engine.

:mod:`repro.analysis.fastpaths` re-implements the distance, stretch and
connectivity primitives on int-indexed CSR arrays (bitset BFS, component
labels).  These tests pin them to the networkx ground truth — including
:func:`repro.analysis.stretch.stretch_report_reference`, the seed's original
measurement code retained verbatim — on healed, churned and disconnected
graphs.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np
import pytest

from repro import ForgivingGraph
from repro.adversary.schedule import churn_schedule, deletion_only_schedule
from repro.adversary.strategies import make_deletion_strategy
from repro.analysis import (
    MeasurementSession,
    check_connectivity_preserved,
    degree_report,
    guarantee_report,
    pairwise_stretch,
    snapshot_healer,
    stretch_report,
    stretch_report_reference,
)
from repro.analysis.fastpaths import CSRGraph, NodeIndex
from repro.baselines import HealerSpec
from repro.generators import make_graph


def churned_forgiving_graph(n=40, seed=17, steps=30, strategy="random"):
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", n, seed=seed))
    schedule = deletion_only_schedule(
        steps=steps, strategy=make_deletion_strategy(strategy, seed=seed), seed=seed
    )
    schedule.run(fg)
    return fg


# --------------------------------------------------------------------------- #
# BFS distances
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("topology", ["erdos_renyi", "power_law", "star", "grid"])
def test_bfs_distances_match_networkx(topology):
    graph = make_graph(topology, 36, seed=5)
    index = NodeIndex()
    index.extend(graph.nodes)
    csr = CSRGraph.from_graph(graph, index)
    sources = np.arange(len(index))
    dist = csr.bfs_distances(sources)
    for s_i in range(len(index)):
        source = index.node_at(s_i)
        ref = nx.single_source_shortest_path_length(graph, source)
        for t_i in range(len(index)):
            expected = ref.get(index.node_at(t_i), math.inf)
            assert dist[s_i, t_i] == expected


def test_bfs_distances_disconnected_and_isolated():
    graph = nx.path_graph(5)
    graph.add_edge("a", "b")
    graph.add_node("lonely")
    index = NodeIndex()
    index.extend(["lonely", *graph.nodes])  # isolated node first: empty CSR rows
    csr = CSRGraph.from_graph(graph, index)
    dist = csr.bfs_distances(index.indices_of([0, "a", "lonely"]))
    assert dist[0, index.index_of(4)] == 4
    assert math.isinf(dist[0, index.index_of("a")])
    assert dist[1, index.index_of("b")] == 1
    assert math.isinf(dist[1, index.index_of(0)])
    assert dist[2, index.index_of("lonely")] == 0
    assert np.isinf(np.delete(dist[2], index.index_of("lonely"))).all()


def test_bfs_single_source_batch_consistency():
    """One big batch and per-source calls agree (different bit-word layouts)."""
    fg = churned_forgiving_graph(n=50, seed=23)
    snap = snapshot_healer(fg)
    all_sources = np.arange(len(snap.index))
    batched = snap.actual.bfs_distances(all_sources)
    for s in [0, 7, len(snap.index) - 1]:
        single = snap.actual.bfs_distances(np.array([s]))[0]
        assert np.array_equal(batched[s], single)


# --------------------------------------------------------------------------- #
# components / connectivity
# --------------------------------------------------------------------------- #
def test_component_labels_match_networkx():
    graph = nx.disjoint_union(nx.path_graph(6), nx.cycle_graph(5))
    graph.add_node(99)
    index = NodeIndex()
    index.extend(graph.nodes)
    csr = CSRGraph.from_graph(graph, index)
    labels = csr.component_labels()
    for component in nx.connected_components(graph):
        ids = [index.index_of(v) for v in component]
        assert len({labels[i] for i in ids}) == 1
    reps = [next(iter(c)) for c in nx.connected_components(graph)]
    assert len({labels[index.index_of(r)] for r in reps}) == len(reps)


def test_connectivity_preserved_matches_reference_semantics():
    fg = churned_forgiving_graph(n=40, seed=29)
    assert check_connectivity_preserved(fg)
    broken = HealerSpec("no_heal").build(make_graph("star", 20, seed=1))
    broken.delete(0)  # hub gone, no healing: leaves are mutually unreachable
    assert not check_connectivity_preserved(broken)


# --------------------------------------------------------------------------- #
# stretch
# --------------------------------------------------------------------------- #
def assert_reports_equal(fast, reference):
    assert fast.max_stretch == reference.max_stretch
    assert fast.pairs_measured == reference.pairs_measured
    assert fast.disconnected_pairs == reference.disconnected_pairs
    assert fast.sampled == reference.sampled
    assert fast.log_n_bound == reference.log_n_bound
    if math.isfinite(reference.mean_stretch):
        assert fast.mean_stretch == pytest.approx(reference.mean_stretch, rel=1e-12)
    else:
        assert math.isinf(fast.mean_stretch)


@pytest.mark.parametrize("strategy", ["random", "max_degree"])
def test_stretch_report_matches_reference_exact(strategy):
    fg = churned_forgiving_graph(n=40, seed=31, strategy=strategy)
    assert_reports_equal(stretch_report(fg), stretch_report_reference(fg))


def test_stretch_report_matches_reference_sampled():
    fg = churned_forgiving_graph(n=60, seed=37, steps=40)
    for seed in (0, 1, 2):
        fast = stretch_report(fg, max_sources=10, seed=seed)
        reference = stretch_report_reference(fg, max_sources=10, seed=seed)
        assert_reports_equal(fast, reference)


def test_stretch_report_matches_reference_on_baselines_and_disconnection():
    healer = HealerSpec("no_heal").build(make_graph("star", 16, seed=2))
    healer.delete(0)
    fast = stretch_report(healer)
    reference = stretch_report_reference(healer)
    assert math.isinf(fast.max_stretch)
    assert_reports_equal(fast, reference)


def test_stretch_report_under_churn_with_session():
    """A reused MeasurementSession gives the same numbers as fresh snapshots."""
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 40, seed=41))
    session = MeasurementSession()
    schedule = churn_schedule(steps=30, delete_probability=0.6, seed=43)

    def check(_event, healer):
        with_session = stretch_report(healer, max_sources=8, seed=0, session=session)
        fresh = stretch_report_reference(healer, max_sources=8, seed=0)
        assert_reports_equal(with_session, fresh)

    schedule.run(fg, on_event=check)


def test_pairwise_stretch_values():
    fg = ForgivingGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    assert pairwise_stretch(fg, 0, 3) == 1.0
    fg.delete(1)
    healed = fg.actual_graph()
    g_prime = fg.g_prime_view()
    expected = nx.shortest_path_length(healed, 0, 2) / nx.shortest_path_length(g_prime, 0, 2)
    assert pairwise_stretch(fg, 0, 2) == expected
    # disconnected in G' -> nan; disconnected only in healed -> inf
    fg2 = ForgivingGraph.from_edges([(0, 1)], nodes=[5])
    assert math.isnan(pairwise_stretch(fg2, 0, 5))
    broken = HealerSpec("no_heal").build(make_graph("star", 8, seed=3))
    broken.delete(0)
    leaves = sorted(broken.alive_nodes)
    assert math.isinf(pairwise_stretch(broken, leaves[0], leaves[1]))


# --------------------------------------------------------------------------- #
# aggregate report plumbing
# --------------------------------------------------------------------------- #
def test_guarantee_report_with_session_matches_sessionless():
    fg = churned_forgiving_graph(n=40, seed=47)
    session = MeasurementSession()
    with_session = guarantee_report(fg, max_sources=12, seed=0, session=session)
    without = guarantee_report(fg, max_sources=12, seed=0)
    assert with_session.as_row() == without.as_row()
    degrees = degree_report(fg)
    assert with_session.degree_factor == degrees.max_factor


def test_node_index_is_stable_across_snapshots():
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 20, seed=53))
    session = MeasurementSession()
    first = session.snapshot(fg)
    order_before = [first.index.node_at(i) for i in range(len(first.index))]
    fg.insert(1000, attach_to=sorted(fg.alive_nodes)[:2])
    fg.delete(sorted(fg.alive_nodes)[0])
    second = session.snapshot(fg)
    assert [second.index.node_at(i) for i in range(len(order_before))] == order_before
    assert 1000 in second.index
