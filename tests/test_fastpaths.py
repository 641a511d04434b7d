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
from repro.core.ports import sorted_nodes
from repro.baselines import HealerSpec
from repro.distributed import DistributedForgivingGraph, fault_schedule
from repro.generators import make_graph


def index_of(index, node):
    """The dense integer ``index`` assigned to ``node`` (KeyError if never seen)."""
    return index._index[node]


def node_at(index, position):
    """The node ``index`` assigned the dense integer ``position``."""
    return index._nodes[position]


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
        source = node_at(index, s_i)
        ref = nx.single_source_shortest_path_length(graph, source)
        for t_i in range(len(index)):
            expected = ref.get(node_at(index, t_i), math.inf)
            assert dist[s_i, t_i] == expected


def test_bfs_distances_disconnected_and_isolated():
    graph = nx.path_graph(5)
    graph.add_edge("a", "b")
    graph.add_node("lonely")
    index = NodeIndex()
    index.extend(["lonely", *graph.nodes])  # isolated node first: empty CSR rows
    csr = CSRGraph.from_graph(graph, index)
    dist = csr.bfs_distances(index.indices_of([0, "a", "lonely"]))
    assert dist[0, index_of(index, 4)] == 4
    assert math.isinf(dist[0, index_of(index, "a")])
    assert dist[1, index_of(index, "b")] == 1
    assert math.isinf(dist[1, index_of(index, 0)])
    assert dist[2, index_of(index, "lonely")] == 0
    assert np.isinf(np.delete(dist[2], index_of(index, "lonely"))).all()


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
        ids = [index_of(index, v) for v in component]
        assert len({labels[i] for i in ids}) == 1
    reps = [next(iter(c)) for c in nx.connected_components(graph)]
    assert len({labels[index_of(index, r)] for r in reps}) == len(reps)


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
def _csr_arrays(csr):
    return csr.num_nodes, csr.indptr.tolist(), csr.indices.tolist()


def test_session_reuses_the_g_prime_csr_until_an_insertion():
    """``G'`` only grows, one node per insertion: while ``nodes_ever`` stands
    still the session hands out the CSR it built, equal to a fresh one."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 80, seed=9))
    session = MeasurementSession()
    first = session.snapshot(healer).g_prime
    for victim in sorted(healer.alive_nodes)[:6]:
        healer.delete(victim)
    reused = session.snapshot(healer)
    assert reused.g_prime is first
    fresh = MeasurementSession().snapshot(healer)
    assert _csr_arrays(reused.g_prime) == _csr_arrays(fresh.g_prime)
    assert _csr_arrays(reused.actual) == _csr_arrays(fresh.actual)

    healer.insert("new", sorted(healer.alive_nodes)[:3])
    rebuilt = session.snapshot(healer).g_prime
    assert rebuilt is not first
    assert rebuilt.num_nodes == first.num_nodes + 1
    assert _csr_arrays(rebuilt) == _csr_arrays(MeasurementSession().snapshot(healer).g_prime)
    assert session.snapshot(healer).g_prime is rebuilt


def test_session_keys_the_g_prime_csr_to_its_healer():
    graph = make_graph("power_law", 40, seed=2)
    first, second = (DistributedForgivingGraph.from_graph(graph) for _ in range(2))
    session = MeasurementSession()
    csr = session.snapshot(first).g_prime
    assert first.nodes_ever == second.nodes_ever
    assert session.snapshot(second).g_prime is not csr
    assert session.snapshot(second).g_prime is session.snapshot(second).g_prime


def test_guarantee_report_with_session_matches_sessionless():
    fg = churned_forgiving_graph(n=40, seed=47)
    session = MeasurementSession()
    with_session = guarantee_report(fg, max_sources=12, seed=0, session=session)
    without = guarantee_report(fg, max_sources=12, seed=0)
    assert with_session.as_row() == without.as_row()
    degrees = degree_report(fg)
    assert with_session.degree_factor == degrees.max_factor


class ProcessorsView:
    """A distributed healer measured on the graph its processors hold."""

    def __init__(self, healer):
        self._healer = healer
        self._links = healer.network_graph()
        self.name = "processors"
        self.alive_nodes = healer.alive_nodes
        self.num_alive = healer.num_alive
        self.nodes_ever = healer.nodes_ever

    def actual_view(self):
        return self._links

    def g_prime_graph_view(self):
        return self._healer.g_prime_graph_view()


def networkx_degree_factors(healer, actual):
    """``deg(v, actual) / deg(v, G')`` per alive node, computed directly on networkx."""
    g_prime = healer.g_prime_graph_view()
    factors = []
    for node in sorted_nodes(healer.alive_nodes):
        base = g_prime.degree(node)
        if base:
            factors.append((actual.degree(node) if node in actual else 0) / base)
    return factors


def churned_views():
    """Churned healers, each as (label, measured healer, its healed graph)."""
    fg = ForgivingGraph.from_graph(make_graph("power_law", 60, seed=59))
    churn_schedule(
        steps=50, delete_probability=0.7, deletion_strategy=make_deletion_strategy("max_degree"), seed=59
    ).run(fg)
    fg.insert("isolated", attach_to=[])  # alive with G' degree 0: no factor
    yield "oracle", fg, fg.actual_graph()
    for preset in ("lossless", "delay", "byzantine"):
        d = DistributedForgivingGraph.from_graph(
            make_graph("erdos_renyi", 50, seed=61), fault_schedule=fault_schedule(preset, seed=61)
        )
        churn_schedule(steps=40, delete_probability=0.7, seed=61).run(d)
        yield f"{preset}/oracle", d, d.actual_graph()
        view = ProcessorsView(d)
        yield f"{preset}/processors", view, view.actual_view()


def test_degree_report_off_the_snapshot_matches_networkx():
    """Both views: the max factor is bit-identical, the mean within 1e-12."""
    graphs = {}
    for label, healer, actual in churned_views():
        graphs[label] = actual
        factors = networkx_degree_factors(healer, actual)
        alive = healer.alive_nodes
        report = degree_report(healer, snapshot=snapshot_healer(healer))
        assert report.max_factor == max(factors), label
        assert report.mean_factor == pytest.approx(sum(factors) / len(factors), rel=1e-12, abs=1e-12)
        assert report.max_actual_degree == max(actual.degree(v) for v in alive if v in actual)
        assert report.max_g_prime_degree == max(healer.g_prime_graph_view().degree(v) for v in alive)
        assert report.num_nodes == len(alive)
        assert degree_report(healer) == report
        guarantee = guarantee_report(healer, max_sources=8, seed=0)
        assert guarantee.degree_factor == max(factors), label
    assert len(graphs) == 7
    # Quarantined liars make the processors' view a different graph.
    assert not nx.utils.graphs_equal(graphs["byzantine/processors"], graphs["byzantine/oracle"])


def per_edge_csr(graph, index):
    """The per-edge CSR build ``CSRGraph.from_graph`` replaced, kept as the reference."""
    n = len(index)
    m = graph.number_of_edges()
    rows = np.empty(2 * m, dtype=np.int64)
    cols = np.empty(2 * m, dtype=np.int64)
    for pos, (u, v) in enumerate(graph.edges):
        rows[pos] = index_of(index, u)
        cols[pos] = index_of(index, v)
    rows[m:] = cols[:m]
    cols[m:] = rows[:m]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols[np.argsort(rows, kind="stable")]


def test_csr_build_matches_the_per_edge_reference():
    graphs = [nx.Graph(), nx.path_graph(1)]
    for _, healer, actual in churned_views():
        graphs += [healer.g_prime_graph_view(), actual]
    for graph in graphs:
        index = NodeIndex()
        index.extend(["isolated", *graph.nodes])
        csr = CSRGraph.from_graph(graph, index)
        indptr, indices = per_edge_csr(graph, index)
        assert csr.indptr.dtype == indptr.dtype and csr.indices.dtype == indices.dtype
        assert np.array_equal(csr.indptr, indptr)
        assert np.array_equal(csr.indices, indices)


def test_csr_build_keeps_the_graph_edge_order_under_any_index_order():
    """Each edge is kept at the end ``graph.edges`` yields, by the graph's node
    order: an index in another order (reversed here) must not change which."""
    looped = nx.Graph([(3, 1), (1, 2), (2, 2), (0, 3), (2, 0)])
    graphs = [looped]
    for _, healer, actual in churned_views():
        graphs += [healer.g_prime_graph_view(), actual]
    for graph in graphs:
        index = NodeIndex()
        index.extend(["isolated", *reversed(list(graph.nodes))])
        csr = CSRGraph.from_graph(graph, index)
        indptr, indices = per_edge_csr(graph, index)
        assert np.array_equal(csr.indptr, indptr)
        assert np.array_equal(csr.indices, indices)


def test_node_index_is_stable_across_snapshots():
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 20, seed=53))
    session = MeasurementSession()
    first = session.snapshot(fg)
    order_before = [node_at(first.index, i) for i in range(len(first.index))]
    fg.insert(1000, attach_to=sorted(fg.alive_nodes)[:2])
    fg.delete(sorted(fg.alive_nodes)[0])
    second = session.snapshot(fg)
    assert [node_at(second.index, i) for i in range(len(order_before))] == order_before
    assert 1000 in second.index
