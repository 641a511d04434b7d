"""Unit tests for the ForgivingGraph engine: construction, insertion, deletion, views."""

import networkx as nx
import pytest

from repro import ForgivingGraph
from repro.adversary.schedule import churn_schedule
from repro.core.errors import (
    DeletedNodeError,
    DuplicateNodeError,
    InvalidEdgeError,
    UnknownNodeError,
)
from repro.core.forgiving_graph import HealingEvent
from repro.generators import make_graph


class TestConstruction:
    def test_from_edges(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        assert fg.num_alive == 3
        assert fg.nodes_ever == 3
        assert fg.actual_graph().number_of_edges() == 2

    def test_from_edges_with_isolated_nodes(self):
        fg = ForgivingGraph.from_edges([(0, 1)], nodes=[5, 6])
        assert fg.num_alive == 4
        assert fg.is_alive(5)

    def test_from_graph(self, small_er):
        fg = ForgivingGraph.from_graph(small_er)
        assert fg.num_alive == small_er.number_of_nodes()
        assert set(fg.actual_graph().edges) == set(small_er.edges)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidEdgeError):
            ForgivingGraph.from_edges([(1, 1)])

    def test_contains_and_len(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        assert 0 in fg
        assert 99 not in fg
        assert len(fg) == 3

    def test_repr_mentions_counts(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        assert "alive=2" in repr(fg)


class TestViews:
    def test_g_prime_is_a_copy(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        view = fg.g_prime_view()
        view.add_edge(10, 11)
        assert fg.nodes_ever == 3

    def test_actual_graph_is_a_copy(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        view = fg.actual_graph()
        view.remove_node(0)
        assert fg.is_alive(0)

    def test_g_prime_keeps_deleted_nodes(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        fg.delete(1)
        assert 1 in fg.g_prime_view()
        assert 1 not in fg.actual_graph()

    def test_g_prime_degree(self):
        fg = ForgivingGraph.from_edges([(0, 1), (0, 2), (0, 3)])
        assert fg.g_prime_degree(0) == 3
        fg.delete(1)
        assert fg.g_prime_degree(0) == 3  # G' ignores deletions

    def test_g_prime_degree_unknown_node(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        with pytest.raises(UnknownNodeError):
            fg.g_prime_degree(42)

    def test_virtual_graph_labels(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)], check_invariants=True)
        fg.delete(1)
        virtual = fg.virtual_graph()
        kinds = {label[0] for label in virtual.nodes}
        assert "real" in kinds and "leaf" in kinds
        for label, data in virtual.nodes(data=True):
            assert "processor" in data


class TestInsertion:
    def test_insert_adds_to_both_views(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        fg.insert(2, attach_to=[0, 1])
        assert fg.is_alive(2)
        assert fg.actual_graph().degree[2] == 2
        assert fg.g_prime_view().degree[2] == 2

    def test_insert_isolated(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        fg.insert(2)
        assert fg.is_alive(2)
        assert fg.actual_graph().degree[2] == 0

    def test_insert_duplicate_rejected(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        with pytest.raises(DuplicateNodeError):
            fg.insert(0)

    def test_insert_reusing_deleted_id_rejected(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        fg.delete(2)
        with pytest.raises(DeletedNodeError):
            fg.insert(2)

    def test_insert_attach_to_dead_node_rejected(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        fg.delete(1)
        with pytest.raises(UnknownNodeError):
            fg.insert(9, attach_to=[1])

    def test_insert_attach_to_self_rejected(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        with pytest.raises(InvalidEdgeError):
            fg.insert(9, attach_to=[9])

    def test_insert_duplicate_attachments_collapse(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        fg.insert(2, attach_to=[0, 0, 0])
        assert fg.actual_graph().degree[2] == 1

    def test_insertion_is_logged(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        fg.insert(2, attach_to=[0])
        event = fg.last_event
        assert event.kind == "insert"
        assert event.node == 2
        assert event.attached_to == (0,)


class TestDeletion:
    def test_delete_removes_from_actual(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)], check_invariants=True)
        fg.delete(1)
        assert not fg.is_alive(1)
        assert 1 not in fg.actual_graph()

    def test_delete_unknown_node(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        with pytest.raises(UnknownNodeError):
            fg.delete(42)

    def test_double_delete_rejected(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        fg.delete(1)
        with pytest.raises(DeletedNodeError):
            fg.delete(1)

    def test_delete_isolated_node(self):
        fg = ForgivingGraph.from_edges([(0, 1)], nodes=[5], check_invariants=True)
        report = fg.delete(5)
        assert report.degree_in_g_prime == 0
        assert report.new_rt_size == 0

    def test_delete_leaf_node(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)], check_invariants=True)
        report = fg.delete(0)
        # The only neighbour (1) has nobody to be reconnected to: trivial RT.
        assert report.new_rt_size == 1
        assert report.helpers_created == 0

    def test_repair_report_fields(self):
        fg = ForgivingGraph.from_edges([(0, i) for i in range(1, 6)], check_invariants=True)
        report = fg.delete(0)
        assert report.deleted_node == 0
        assert report.degree_in_g_prime == 5
        assert report.new_rt_size == 5
        assert report.helpers_created == 4
        assert report.merged_complete_trees == 5

    def test_deletion_is_logged_with_report(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)])
        fg.delete(1)
        event = fg.last_event
        assert event.kind == "delete"
        assert event.report is not None
        assert event.report.deleted_node == 1

    def test_engine_keeps_only_the_latest_event(self):
        """400 ops of churn leave one event on the engine, not one per op."""
        fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", 200, seed=3))
        assert fg.last_event is None
        moves = churn_schedule(steps=400, delete_probability=0.5, seed=3).run(fg)
        assert len(moves) == 400
        held = []
        for value in vars(fg).values():
            items = value if isinstance(value, list) else [value]
            held += [item for item in items if isinstance(item, HealingEvent)]
        assert held == [fg.last_event]
        assert (fg.last_event.kind, fg.last_event.node) == (moves[-1].kind, moves[-1].node)

    def test_connectivity_preserved_after_cut_vertex_deletion(self):
        # 1 is a cut vertex of the path 0-1-2.
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2)], check_invariants=True)
        fg.delete(1)
        healed = fg.actual_graph()
        assert nx.has_path(healed, 0, 2)

    def test_deleting_all_but_one_node(self):
        fg = ForgivingGraph.from_edges([(i, i + 1) for i in range(5)], check_invariants=True)
        for node in range(5):
            fg.delete(node)
        assert fg.num_alive == 1
        assert fg.actual_graph().number_of_edges() == 0

    def test_degree_increase_factor_of_specific_node(self):
        fg = ForgivingGraph.from_edges([(0, 1), (1, 2), (2, 0)], check_invariants=True)
        fg.delete(0)
        assert fg.degree_increase_factor(1) >= 0.5
        assert fg.degree_increase_factor() <= 4.0
