"""Unit tests for the repair-protocol planning layer (phases of Section 4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ForgivingGraph
from repro.adversary import MaxDegreeDeletion
from repro.core.errors import UnknownNodeError
from repro.core.ports import Port
from repro.core.reconstruction_tree import RTLeaf, compute_haft
from repro.distributed import DistributedForgivingGraph, protocol
from repro.distributed.merge import merge_summaries, summary_of
from repro.distributed.processor import _NO_ENTRIES, RepairContext
from repro.distributed.protocol import _balanced_tree_edges, plan_repair, seed_repair
from repro.generators import make_graph


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
        for path, rt in zip(plan.probe_paths, fg.affected_rt_nodes(4)[0]):
            assert 1 <= len(path) <= rt.depth + 1

    def test_affected_rts_requires_known_node(self):
        fg = ForgivingGraph.from_edges([(0, 1)])
        with pytest.raises(UnknownNodeError):
            fg.affected_rt_nodes(99)


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


def _port_of(node):
    return node.port if isinstance(node, RTLeaf) else node.simulated_by


def _complete_pieces(exponents, ids):
    """One complete tree of ``2 ** k`` leaves per exponent, each built from
    its own leaves (ports towards the victim ``"v"``) by the oracle's merge."""
    pieces, taken = [], 0
    for k in exponents:
        leaves = [RTLeaf(Port(node, "v")) for node in ids[taken : taken + (1 << k)]]
        taken += 1 << k
        root, _ = compute_haft(leaves)
        pieces.append(root)
    return pieces


class TestLeaderMergeMatchesTheOracle:
    """``merge_summaries`` on the pieces' descriptors builds exactly what
    ``compute_haft`` builds on the pieces themselves."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        exponents=st.lists(st.integers(0, 3), min_size=1, max_size=12),
        shuffle=st.randoms(use_true_random=False),
    )
    def test_helpers_parents_and_root_match_compute_haft(self, exponents, shuffle):
        total = sum(1 << k for k in exponents)
        # Mixed id types exercise the merge order's type-first tie-break.
        ids = [i if i % 3 else f"p{i}" for i in range(total)]
        shuffle.shuffle(ids)
        pieces = _complete_pieces(exponents, ids)
        shuffle.shuffle(pieces)
        summaries = [summary_of(piece) for piece in pieces]

        outcome = merge_summaries("v", summaries)
        root, helpers = compute_haft(pieces)

        assert [
            (
                h.port,
                h.left_port,
                h.left_is_leaf,
                h.right_port,
                h.right_is_leaf,
                h.parent_port,
                h.height,
                h.num_leaves,
                h.representative,
            )
            for h in outcome.helpers
        ] == [
            (
                h.simulated_by,
                _port_of(h.left),
                isinstance(h.left, RTLeaf),
                _port_of(h.right),
                isinstance(h.right, RTLeaf),
                h.parent.simulated_by if h.parent is not None else None,
                h.height,
                h.num_leaves,
                h.representative.port,
            )
            for h in helpers
        ]
        assert outcome.parent_updates == [
            (_port_of(piece), isinstance(piece, RTLeaf), piece.parent.simulated_by)
            for piece in pieces
            if piece.parent is not None
        ]
        assert (outcome.root_port, outcome.root_is_leaf) == (
            _port_of(root),
            isinstance(root, RTLeaf),
        )
        assert len(helpers) == len(pieces) - 1


def _attacked_healer(moves=12):
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=4))
    strategy = MaxDegreeDeletion()
    for _ in range(moves):
        healer.delete(strategy.choose_victim(healer))
    return healer, strategy


class TestRepairContextsPerRole:
    def test_plan_builds_one_context_per_participant(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(RepairContext(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(protocol, "RepairContext", counting)
        healer, strategy = _attacked_healer()
        for _ in range(8):
            victim = strategy.choose_victim(healer)
            built.clear()
            plan = plan_repair(healer.engine, victim)
            assert plan.contexts
            assert sorted(map(id, built)) == sorted(map(id, plan.contexts.values()))
            healer.delete(victim)

    def test_spine_only_participant_keeps_the_shared_empty_containers(self):
        healer, strategy = _attacked_healer()
        network = healer.network
        while True:
            victim = strategy.choose_victim(healer)
            plan = plan_repair(healer.engine, victim)
            spine_only = [
                node
                for node, context in plan.contexts.items()
                if context.spines and not context.is_anchor
            ]
            if spine_only:
                break
            healer.delete(victim)
        # Seed the repair the way a one-victim wave does.
        healer.engine.delete(victim)
        network.remove_processor(victim)
        network.begin_scaffold()
        participants = seed_repair(network, plan)
        for node in spine_only:
            assert node in participants
            context = network.processors[node].repairs[victim]
            assert context is plan.contexts[node]
            assert not context.is_leader
            for name in ("gathered", "pieces_confirmed", "instructed", "confirmed_ports"):
                assert getattr(context, name) is _NO_ENTRIES, name
        network.end_scaffold()
