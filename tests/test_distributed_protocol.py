"""Unit tests for the repair-protocol planning layer (phases of Section 4.2)."""

import pytest

from repro import ForgivingGraph
from repro.core.errors import UnknownNodeError
from repro.distributed.protocol import _balanced_tree_edges, plan_repair


class TestPlanRepair:
    def test_plan_for_fresh_node_has_only_trivial_anchors(self):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, 6)])
        plan = plan_repair(fg, 0)
        assert plan.victim == 0
        assert sorted(plan.neighbors) == [1, 2, 3, 4, 5]
        assert plan.probe_paths == []           # no RTs exist yet
        assert sorted(plan.anchors) == [1, 2, 3, 4, 5]

    def test_plan_includes_affected_rt_probe_paths(self):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(8)])
        fg.delete(3)
        fg.delete(5)
        plan = plan_repair(fg, 4)  # node 4 sits between the two RTs
        assert len(plan.probe_paths) == 2
        # Probe paths walk the right spine: their length is bounded by depth+1.
        for path, rt in zip(plan.probe_paths, fg.affected_reconstruction_trees(4)):
            assert 1 <= len(path) <= rt.depth + 1

    def test_primary_root_counts_are_popcounts(self):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, 14)])
        fg.delete(0)
        # Attack a leaf next: its only RT has 13 leaves -> popcount(13) = 3.
        plan = plan_repair(fg, 1)
        assert plan.primary_root_counts == [3]

    def test_affected_rts_requires_known_node(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        with pytest.raises(UnknownNodeError):
            fg.affected_reconstruction_trees(99)


class TestBalancedTreeEdges:
    def test_empty_and_single(self):
        assert _balanced_tree_edges([]) == []
        assert _balanced_tree_edges(["a"]) == []

    def test_edge_count_is_n_minus_one(self):
        anchors = [f"a{i}" for i in range(9)]
        edges = _balanced_tree_edges(anchors)
        assert len(edges) == 8

    def test_structure_is_a_tree_of_logarithmic_depth(self):
        import networkx as nx

        anchors = [f"a{i}" for i in range(16)]
        tree = nx.Graph(_balanced_tree_edges(anchors))
        assert nx.is_tree(tree)
        lengths = nx.single_source_shortest_path_length(tree, anchors[0])
        assert max(lengths.values()) <= 5  # ~log2(16) + 1


class TestEngineRepairHooks:
    def test_repair_report_describes_the_merge(self):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, 9)])
        report = fg.delete(0)
        assert report.new_rt_size == 8
        assert report.helpers_created == 7
        assert report.helpers_released == 0

    def test_second_deletion_releases_helpers(self):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, 10)] + [(1, 100)])
        fg.delete(0)
        report = fg.delete(1)  # breaks the previous RT: some helpers get released
        assert report.helpers_released > 0
        # No helper is left on the dead processor or registered stale.
        fg.check_invariants()
