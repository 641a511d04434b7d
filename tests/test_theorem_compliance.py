"""End-to-end theorem compliance tests.

These integration tests drive the full pipeline (generator -> adversary ->
Forgiving Graph -> analysis) across topologies and adversaries and assert the
paper's guarantees directly — the executable counterpart of Theorem 1 and
Theorem 2.
"""

import math

import networkx as nx
import pytest

from repro import ForgivingGraph
from repro.adversary import deletion_only_schedule, make_deletion_strategy
from repro.analysis import (
    check_connectivity_preserved,
    guarantee_report,
    lower_bound_stretch,
    stretch_report,
    verify_tradeoff_against_lower_bound,
)
from repro.baselines import HealerSpec
from repro.generators import make_graph

TOPOLOGIES = ["erdos_renyi", "power_law", "grid", "ring", "binary_tree", "star", "path"]
STRATEGIES = ["random", "max_degree", "min_degree", "cut"]


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("strategy", ["random", "max_degree"])
def test_theorem1_on_topology_and_adversary(topology, strategy):
    """Theorem 1: degree factor O(1) and stretch <= log2(n) after a heavy attack."""
    graph = make_graph(topology, 48, seed=13)
    fg = ForgivingGraph.from_graph(graph, check_invariants=True)
    schedule = deletion_only_schedule(
        steps=24, strategy=make_deletion_strategy(strategy, seed=1), seed=1
    )
    schedule.run(fg)

    assert check_connectivity_preserved(fg)
    assert fg.degree_increase_factor() <= 4.0 + 1e-9
    stretch = stretch_report(fg)
    assert stretch.max_stretch <= max(math.log2(fg.nodes_ever), 1.0) + 1e-9


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_theorem1_holds_at_every_intermediate_step(strategy):
    """The guarantees are 'at any time T' statements, so check after every move."""
    graph = make_graph("erdos_renyi", 30, seed=3)
    fg = ForgivingGraph.from_graph(graph, check_invariants=True)
    chooser = make_deletion_strategy(strategy, seed=2)
    for _ in range(20):
        victim = chooser.choose_victim(fg)
        if victim is None or fg.num_alive <= 2:
            break
        fg.delete(victim)
        assert fg.degree_increase_factor() <= 4.0 + 1e-9
        assert stretch_report(fg).max_stretch <= max(math.log2(fg.nodes_ever), 1.0) + 1e-9


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_theorem2_star_lower_bound_consistency(n):
    """Theorem 2 on the star: measured (degree, stretch) never beats the floor."""
    star = make_graph("star", n)
    for healer_name in ("forgiving_graph", "forgiving_tree", "cycle_heal", "surrogate_heal"):
        healer = HealerSpec(healer_name).build(star)
        healer.delete(0)
        report = guarantee_report(healer, healer_name=healer_name)
        check = verify_tradeoff_against_lower_bound(
            n=n, measured_degree_factor=report.degree_factor, measured_stretch=report.stretch
        )
        if report.degree_factor <= 3.0:
            assert check.consistent, (
                f"{healer_name} on star({n}) appears to beat the Theorem 2 lower bound"
            )


@pytest.mark.parametrize("n", [32, 64, 128])
def test_forgiving_graph_stretch_is_within_constant_of_lower_bound_on_star(n):
    """The FG trade-off is asymptotically optimal: its star stretch is Theta(log n)."""
    fg = ForgivingGraph.from_graph(make_graph("star", n), check_invariants=True)
    fg.delete(0)
    measured = stretch_report(fg).max_stretch
    floor = lower_bound_stretch(n, 3.0)
    ceiling = math.log2(n)
    assert floor - 1e-9 <= measured <= ceiling + 1e-9
    # within a small constant factor of the unavoidable floor
    assert measured <= 4.0 * floor


def test_diameter_increase_matches_forgiving_tree_style_bound():
    """Deleting one node of degree d multiplies local distances by at most O(log d)."""
    d = 64
    fg = ForgivingGraph.from_edges([(0, i) for i in range(1, d + 1)], check_invariants=True)
    fg.delete(0)
    healed = fg.actual_graph()
    assert nx.diameter(healed) <= 2 * math.ceil(math.log2(d))


@pytest.mark.parametrize("deletions", [1, 0])
def test_insertions_never_trigger_repair_work(deletions):
    """Insertions are free: no reconstruction trees are created or modified."""
    fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 20, seed=1), check_invariants=True)
    for _ in range(deletions):
        fg.delete(sorted(fg.alive_nodes)[0])
    rts_before = {rt.rt_id for rt in fg.reconstruction_trees()}
    factor_before = max(fg.degree_increase_factor(), 1.0)
    for i in range(10):
        fg.insert(1000 + i, attach_to=sorted(fg.alive_nodes)[:3])
    assert {rt.rt_id for rt in fg.reconstruction_trees()} == rts_before
    # An insertion adds the same edges to G' and the healed graph.
    assert fg.degree_increase_factor() <= factor_before + 1e-9


def test_large_scale_attack_stays_within_bounds():
    """A heavier run (200 nodes, 150 deletions) keeps all guarantees."""
    graph = make_graph("power_law", 200, seed=17)
    fg = ForgivingGraph.from_graph(graph)  # invariant checking off for speed
    schedule = deletion_only_schedule(
        steps=150, strategy=make_deletion_strategy("max_degree"), seed=17
    )
    schedule.run(fg)
    assert fg.degree_increase_factor() <= 4.0 + 1e-9
    report = stretch_report(fg, max_sources=30, seed=0)
    assert report.max_stretch <= math.log2(fg.nodes_ever) + 1e-9
    assert check_connectivity_preserved(fg)
