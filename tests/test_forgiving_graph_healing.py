"""Scenario tests for the self-healing behaviour (Sections 3-5, Figures 2, 7, 8)."""

import math

import networkx as nx
import pytest

from repro import ForgivingGraph
from repro.analysis import check_connectivity_preserved, stretch_report
from repro.generators import make_graph


class TestStarScenario:
    """Figure 2 / Theorem 2 setting: a hub with many leaves is deleted."""

    @pytest.mark.parametrize("n_leaves", [2, 3, 4, 7, 8, 15, 16, 31, 63, 512])
    def test_hub_deletion_builds_haft_over_leaves(self, n_leaves):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, n_leaves + 1)], check_invariants=True)
        fg.delete(0)
        rts = fg.reconstruction_trees()
        assert len(rts) == 1
        assert rts[0].size == n_leaves
        assert rts[0].depth == (math.ceil(math.log2(n_leaves)) if n_leaves > 1 else 0)

    @pytest.mark.parametrize("n_leaves", [7, 16, 63])
    def test_hub_deletion_diameter_is_logarithmic(self, n_leaves):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, n_leaves + 1)], check_invariants=True)
        fg.delete(0)
        healed = fg.actual_graph()
        assert nx.is_connected(healed)
        assert nx.diameter(healed) <= 2 * math.ceil(math.log2(n_leaves))

    @pytest.mark.parametrize("n_leaves", [7, 16, 63])
    def test_hub_deletion_degrees_stay_constant(self, n_leaves):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, n_leaves + 1)], check_invariants=True)
        fg.delete(0)
        healed = fg.actual_graph()
        # Every survivor had G' degree 1; virtual structure gives each at most
        # 1 leaf edge + 3 helper edges.
        assert max(dict(healed.degree()).values()) <= 4


class TestRTMerging:
    """Figures 7-8: deleting a node adjacent to existing RTs merges them."""

    def test_adjacent_deletions_merge_into_one_rt(self):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(8)], check_invariants=True)
        fg.delete(3)
        fg.delete(5)
        assert len(fg.reconstruction_trees()) == 2
        fg.delete(4)  # adjacent to both RTs: everything merges
        assert len(fg.reconstruction_trees()) == 1

    def test_merged_rt_contains_all_expected_ports(self):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(8)], check_invariants=True)
        for victim in (3, 5, 4):
            fg.delete(victim)
        (rt,) = fg.reconstruction_trees()
        port_processors = sorted(port.processor for port in rt.ports())
        assert port_processors == [2, 6]  # the two survivors flanking the hole

    def test_far_apart_deletions_stay_separate(self):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(10)], check_invariants=True)
        fg.delete(2)
        fg.delete(7)
        assert len(fg.reconstruction_trees()) == 2

    @pytest.mark.parametrize(
        "victims", [range(1, 19, 2), range(1, 20)], ids=["every-other", "every-interior"]
    )
    def test_path_stays_connected_through_many_deletions(self, victims):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(20)], check_invariants=True)
        for victim in victims:
            fg.delete(victim)
        healed = fg.actual_graph()
        assert nx.is_connected(healed)

    def test_consecutive_interior_deletions(self):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(12)], check_invariants=True)
        for victim in range(3, 9):
            fg.delete(victim)
        healed = fg.actual_graph()
        assert nx.is_connected(healed)
        assert nx.has_path(healed, 0, 11)


class TestGuaranteesOnTopologies:
    @pytest.mark.parametrize("topology", ["erdos_renyi", "power_law", "grid", "ring", "binary_tree"])
    def test_random_attack_keeps_guarantees(self, topology):
        graph = make_graph(topology, 48, seed=3)
        fg = ForgivingGraph.from_graph(graph, check_invariants=True)
        victims = sorted(graph.nodes)[::2][:20]
        for victim in victims:
            if fg.is_alive(victim) and fg.num_alive > 2:
                fg.delete(victim)
        assert check_connectivity_preserved(fg)
        assert fg.degree_increase_factor() <= 4.0
        report = stretch_report(fg)
        assert report.max_stretch <= max(math.log2(fg.nodes_ever), 1.0) + 1e-9

    def test_mixed_insert_delete_guarantees(self):
        fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 30, seed=5), check_invariants=True)
        fresh = 1000
        for step in range(40):
            if step % 3 == 0:
                targets = sorted(fg.alive_nodes)[:3]
                fg.insert(fresh, attach_to=targets)
                fresh += 1
            else:
                victim = sorted(fg.alive_nodes)[step % fg.num_alive]
                if fg.num_alive > 2:
                    fg.delete(victim)
        assert check_connectivity_preserved(fg)
        assert fg.degree_increase_factor() <= 4.0

    def test_insertion_after_heavy_deletion(self):
        fg = ForgivingGraph.from_graph(make_graph("power_law", 40, seed=9), check_invariants=True)
        for victim in sorted(fg.alive_nodes)[:30]:
            if fg.num_alive > 3:
                fg.delete(victim)
        fg.insert("late", attach_to=sorted(fg.alive_nodes)[:2])
        assert fg.is_alive("late")
        assert check_connectivity_preserved(fg)


class TestStretchAgainstGPrime:
    def test_stretch_is_relative_to_g_prime_not_previous_graph(self):
        """After deleting the hub of a star, leaves were at G' distance 2."""
        n_leaves = 32
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, n_leaves + 1)], check_invariants=True)
        fg.delete(0)
        report = stretch_report(fg)
        # Healed distance between two leaves is at most 2*log2(32) = 10; their
        # G' distance is 2 (through the deleted hub), so stretch <= 5 = log2(n).
        assert report.max_stretch <= math.log2(fg.nodes_ever) + 1e-9

    def test_repeated_hub_attack(self):
        """The adversary repeatedly deletes the current highest-degree node."""
        fg = ForgivingGraph.from_graph(make_graph("power_law", 60, seed=2), check_invariants=True)
        for _ in range(40):
            if fg.num_alive <= 3:
                break
            healed = fg.actual_graph()
            victim = max(fg.alive_nodes, key=lambda v: healed.degree[v])
            fg.delete(victim)
        report = stretch_report(fg)
        assert report.max_stretch <= math.log2(fg.nodes_ever) + 1e-9
        assert fg.degree_increase_factor() <= 4.0
