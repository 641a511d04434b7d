"""Equivalence of the incrementally-maintained healed graph with the rebuild.

The engine applies per-repair edge deltas to a persistent ``G`` instead of
rebuilding it after every deletion; ``_rebuild_actual()`` is the retained
from-scratch builder.  These tests drive randomized churn and adversarial
worst cases and assert after *every* event that the maintained graph matches
the rebuild exactly — nodes, edges and degrees.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro import ForgivingGraph
from repro.adversary.schedule import churn_schedule, deletion_only_schedule
from repro.adversary.strategies import make_deletion_strategy
from repro.generators import make_graph


def assert_incremental_matches_rebuild(fg: ForgivingGraph) -> None:
    maintained = fg.actual_view()
    rebuilt = fg._rebuild_actual()
    assert set(maintained.nodes) == set(rebuilt.nodes)
    assert {frozenset(e) for e in maintained.edges} == {frozenset(e) for e in rebuilt.edges}
    assert {v: maintained.degree[v] for v in maintained} == {
        v: rebuilt.degree[v] for v in rebuilt
    }
    assert fg._num_edges == maintained.number_of_edges()
    # every healed edge's multiplicity matches its sources counted from
    # scratch, walked as the rebuild walks them
    alive = fg.alive_nodes
    sources = Counter(
        frozenset((u, v)) for u, v in fg.g_prime_graph_view().edges if u in alive and v in alive
    )
    for rt in fg.reconstruction_trees():
        for parent, child in rt.virtual_edges():
            if parent.processor != child.processor:
                sources[frozenset((parent.processor, child.processor))] += 1
    assert set(sources) == {frozenset(e) for e in maintained.edges}
    for edge, count in sources.items():
        assert fg.edge_multiplicity(*edge) == count
    nodes = sorted(maintained, key=repr)[:8]
    assert all(
        fg.edge_multiplicity(u, v) == 0 for u in nodes for v in nodes if not maintained.has_edge(u, v)
    )


@pytest.mark.parametrize("topology", ["erdos_renyi", "power_law", "star", "path"])
@pytest.mark.parametrize("strategy", ["random", "max_degree", "min_degree"])
def test_churn_equivalence_after_every_event(topology, strategy):
    """Randomized mixed churn: delta-maintained G == rebuild after every event."""
    fg = ForgivingGraph.from_graph(make_graph(topology, 40, seed=3))
    schedule = churn_schedule(
        steps=60,
        delete_probability=0.7,
        deletion_strategy=make_deletion_strategy(strategy, seed=5),
        seed=7,
    )
    schedule.run(fg, on_event=lambda _event, healer: assert_incremental_matches_rebuild(healer))
    assert_incremental_matches_rebuild(fg)


def test_deletion_only_equivalence_down_to_minimum():
    """Pure deletions down to two survivors keep the maintained G exact."""
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 50, seed=11))
    schedule = deletion_only_schedule(steps=48, seed=13)
    schedule.run(fg, on_event=lambda _event, healer: assert_incremental_matches_rebuild(healer))
    assert fg.num_alive == 2
    assert_incremental_matches_rebuild(fg)


def test_repeated_hub_deletion_equivalence():
    """The Theorem 2 star scenario: delete every hub replacement in turn."""
    fg = ForgivingGraph.from_graph(make_graph("star", 33, seed=0))
    victims = sorted(fg.alive_nodes)
    for victim in victims[: len(victims) - 2]:
        if fg.is_alive(victim):
            fg.delete(victim)
            assert_incremental_matches_rebuild(fg)


def test_insertions_and_reconnections_equivalence():
    """Insertions attached to survivors of earlier deletions stay consistent."""
    fg = ForgivingGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
    fg.delete(1)
    assert_incremental_matches_rebuild(fg)
    fg.insert(10, attach_to=[0, 2])
    assert_incremental_matches_rebuild(fg)
    fg.delete(2)
    assert_incremental_matches_rebuild(fg)
    fg.insert(11, attach_to=[10])
    fg.insert(12, attach_to=[10, 11, 3])
    assert_incremental_matches_rebuild(fg)
    fg.delete(10)
    assert_incremental_matches_rebuild(fg)


def test_checked_engine_random_churn():
    """check_invariants() (which embeds the cross-check) holds through churn."""
    fg = ForgivingGraph.from_graph(
        make_graph("erdos_renyi", 30, seed=21), check_invariants=True
    )
    rng = np.random.default_rng(2)
    fresh = 1000
    for _ in range(50):
        alive = sorted(fg.alive_nodes)
        if len(alive) > 3 and rng.random() < 0.7:
            fg.delete(alive[int(rng.integers(0, len(alive)))])
        else:
            picks = rng.choice(len(alive), size=min(3, len(alive)), replace=False)
            fg.insert(fresh, attach_to=[alive[int(i)] for i in picks])
            fresh += 1


def test_fast_accessors_agree_with_rebuild():
    """actual_degree / the healed view's edges / views read the same graph the rebuild gives."""
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 30, seed=9))
    schedule = deletion_only_schedule(steps=12, seed=1)
    schedule.run(fg)
    rebuilt = fg._rebuild_actual()
    healed = set(fg.actual_view().edges)
    assert healed == set(rebuilt.edges) or {frozenset(e) for e in healed} == {
        frozenset(e) for e in rebuilt.edges
    }
    for node in fg.alive_nodes:
        assert fg.actual_degree(node) == (rebuilt.degree[node] if node in rebuilt else 0)
    # views are zero-copy: they reflect subsequent engine mutations
    view = fg.actual_view()
    victim = sorted(fg.alive_nodes)[0]
    fg.delete(victim)
    assert victim not in view
    with pytest.raises(Exception):
        view.add_node("nope")
