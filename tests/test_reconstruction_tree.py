"""Unit tests for reconstruction trees and the representative mechanism (Section 4.2)."""

import pytest

from repro.core.errors import InvariantViolationError
from repro.core.ports import Port
from repro.core.reconstruction_tree import (
    ReconstructionTree,
    RTHelper,
    RTLeaf,
    compute_haft,
    extract_surviving_complete_trees,
    iter_rt_nodes,
    representative_of,
)


def make_leaves(processors, neighbor="dead"):
    """One trivial leaf per processor, all for edges towards the same dead node."""
    return [RTLeaf(Port(p, neighbor)) for p in processors]


def rt_from_merge(root):
    """Wrap a merged tree as an RT, its lookup tables rebuilt by traversal."""
    leaves, helpers = {}, {}
    for node in iter_rt_nodes(root):
        if isinstance(node, RTLeaf):
            assert node.port not in leaves, node.port
            leaves[node.port] = node
        else:
            assert node.simulated_by not in helpers, node.simulated_by
            helpers[node.simulated_by] = node
    return ReconstructionTree(root=root, leaves=leaves, helpers=helpers)


def leaf_distance(rt, a, b):
    """Tree distance (virtual hops) between two leaf ports of ``rt``."""

    def path_to_root(node):
        path = [node]
        while path[-1].parent is not None:
            path.append(path[-1].parent)
        return path

    depth_in_a = {id(node): i for i, node in enumerate(path_to_root(rt.leaves[a]))}
    for j, node in enumerate(path_to_root(rt.leaves[b])):
        if id(node) in depth_in_a:
            return depth_in_a[id(node)] + j
    raise AssertionError("leaves of one RT share no common ancestor")


class TestRTLeaf:
    def test_protocol_fields(self):
        leaf = RTLeaf(Port("a", "v"))
        assert leaf.is_leaf
        assert leaf.height == 0
        assert leaf.num_leaves == 1
        assert leaf.processor == "a"

    def test_representative_of_leaf_is_itself(self):
        leaf = RTLeaf(Port("a", "v"))
        assert representative_of(leaf) is leaf


class TestComputeHaft:
    def test_single_leaf(self):
        (leaf,) = make_leaves(["a"])
        root, helpers = compute_haft([leaf])
        assert root is leaf
        assert helpers == []

    def test_two_leaves_creates_one_helper(self):
        leaves = make_leaves(["a", "b"])
        root, helpers = compute_haft(leaves)
        assert isinstance(root, RTHelper)
        assert len(helpers) == 1
        assert root.num_leaves == 2
        # The helper is simulated by the representative of one of the leaves
        # and inherits the other leaf as its representative.
        assert root.simulated_by.processor in {"a", "b"}
        assert root.representative.processor in {"a", "b"}
        assert root.representative.port != root.simulated_by

    def test_helper_count_is_leaves_minus_one(self):
        for count in (2, 3, 5, 8, 13):
            leaves = make_leaves([f"p{i}" for i in range(count)])
            root, helpers = compute_haft(leaves)
            assert len(helpers) == count - 1
            assert root.num_leaves == count

    def test_each_processor_simulates_at_most_one_helper(self):
        """Lemma 3 part 1, at the scale of a single merge."""
        leaves = make_leaves([f"p{i}" for i in range(13)])
        _root, helpers = compute_haft(leaves)
        simulators = [helper.simulated_by for helper in helpers]
        assert len(simulators) == len(set(simulators))

    def test_helper_is_ancestor_of_its_own_leaf(self):
        leaves = make_leaves([f"p{i}" for i in range(9)])
        root, helpers = compute_haft(leaves)
        rt = rt_from_merge(root)
        for port, helper in rt.helpers.items():
            node = rt.leaves[port]
            ancestors = []
            while node is not None:
                ancestors.append(node)
                node = node.parent
            assert helper in ancestors

    def test_result_is_valid_rt(self):
        leaves = make_leaves([f"p{i}" for i in range(11)])
        root, _ = compute_haft(leaves)
        rt_from_merge(root).validate()

    def test_busy_port_violation_is_detected(self):
        leaves = make_leaves(["a", "b"])
        with pytest.raises(InvariantViolationError):
            compute_haft(leaves, busy_ports={Port("a", "dead"), Port("b", "dead")})

    def test_busy_registry_is_checked_in_place(self):
        """Any container serves: it is asked ``in`` per new helper, never walked."""

        class MembershipOnly:
            def __init__(self, ports):
                self.ports = set(ports)
                self.asked = []

            def __contains__(self, port):
                self.asked.append(port)
                return port in self.ports

        registry = MembershipOnly([Port("elsewhere", "dead")])
        _root, helpers = compute_haft(make_leaves(["a", "b", "c", "d", "e"]), busy_ports=registry)
        assert registry.asked == [helper.simulated_by for helper in helpers]

    def test_representative_in_the_helper_registry_raises(self):
        # The engine passes its helper registry, a dict keyed by port.
        registry = {Port("a", "dead"): object()}
        with pytest.raises(InvariantViolationError, match="busy port"):
            compute_haft(make_leaves(["a", "b"]), busy_ports=registry)

    def test_one_merge_claiming_a_port_twice_raises(self):
        # Two leaves for one port: the first carry claims it, and the chain
        # step picks the same port again as the carried tree's representative.
        leaves = [RTLeaf(Port("a", "dead")), RTLeaf(Port("a", "dead")), RTLeaf(Port("b", "dead"))]
        with pytest.raises(InvariantViolationError, match="busy port"):
            compute_haft(leaves, busy_ports={})

    def test_merging_unequal_trees(self):
        first_root, _ = compute_haft(make_leaves(["a", "b", "c", "d"]))
        extra = make_leaves(["e"], neighbor="other")[0]
        root, helpers = compute_haft([first_root, extra])
        assert root.num_leaves == 5
        rt_from_merge(root).validate()

    def test_requires_at_least_one_tree(self):
        with pytest.raises(ValueError):
            compute_haft([])

    def test_merge_order_is_invariant_under_id_relabeling(self):
        """Regression: tie-breaking uses the ids' natural total order, not reprs.

        Two isomorphic inputs whose node ids map onto each other by an
        order-preserving relabeling must produce structurally identical
        hafts.  Under the old repr-based comparison, int processors sorted
        lexicographically ("10" < "2"), so relabeling ints to zero-padded
        strings (whose lexicographic order matches the ints' natural order)
        changed the merge order and hence the resulting tree.
        """
        processors = [1, 2, 3, 10, 11, 12, 13]  # repr order != natural order
        relabel = {p: f"{p:04d}" for p in processors}

        def build(ids, neighbor):
            root, _ = compute_haft(make_leaves(ids, neighbor))
            return root

        int_root = build(processors, neighbor=99)
        str_root = build([relabel[p] for p in processors], neighbor=relabel.get(99, "0099"))

        def walk(a, b):
            if isinstance(a, RTLeaf):
                assert isinstance(b, RTLeaf)
                assert relabel[a.port.processor] == b.port.processor
                return
            assert isinstance(b, RTHelper)
            assert relabel[a.simulated_by.processor] == b.simulated_by.processor
            assert relabel[a.representative.port.processor] == b.representative.port.processor
            walk(a.left, b.left)
            walk(a.right, b.right)

        walk(int_root, str_root)


class TestReconstructionTree:
    def test_trivial(self):
        rt = ReconstructionTree.trivial(Port("a", "v"))
        assert rt.size == 1
        assert rt.depth == 0
        rt.validate()

    def test_from_merge_builds_lookup_tables(self):
        root, helpers = compute_haft(make_leaves(["a", "b", "c"]))
        rt = rt_from_merge(root)
        assert set(p.processor for p in rt.leaves) == {"a", "b", "c"}
        assert len(rt.helpers) == 2
        rt.validate()

    def test_processors(self):
        root, _ = compute_haft(make_leaves(["a", "b", "c"]))
        rt = rt_from_merge(root)
        assert rt.processors() == {"a", "b", "c"}

    def test_virtual_edges_count(self):
        root, _ = compute_haft(make_leaves([f"p{i}" for i in range(6)]))
        rt = rt_from_merge(root)
        # A tree over (leaves + helpers) nodes has that many nodes minus one edges.
        total_nodes = rt.size + len(rt.helpers)
        assert len(list(rt.virtual_edges())) == total_nodes - 1

    def test_leaf_distance_bounds(self):
        root, _ = compute_haft(make_leaves([f"p{i}" for i in range(16)]))
        rt = rt_from_merge(root)
        ports = sorted(rt.leaves)
        worst = max(leaf_distance(rt, ports[0], other) for other in ports[1:])
        assert worst <= 2 * rt.depth
        assert rt.depth == 4

    def test_validate_detects_duplicate_leaf_port(self):
        root, _ = compute_haft(make_leaves(["a", "b"]))
        rt = rt_from_merge(root)
        # Corrupt: point another leaf record at the same port.
        duplicate = RTLeaf(Port("a", "dead"))
        rt.leaves[Port("zz", "dead")] = duplicate
        with pytest.raises(InvariantViolationError):
            rt.validate()

    def test_validate_detects_wrong_representative(self):
        root, helpers = compute_haft(make_leaves(["a", "b", "c", "d"]))
        rt = rt_from_merge(root)
        helpers[0].representative = helpers[-1].representative
        with pytest.raises(InvariantViolationError):
            # Either the representative check or the lookup-table check fires.
            rt.validate()


class TestExtractSurvivingCompleteTrees:
    def build_rt(self, processors, neighbor="dead"):
        root, _ = compute_haft(make_leaves(processors, neighbor))
        return rt_from_merge(root)

    def test_deleting_a_leaf_owner_keeps_other_leaves(self):
        rt = self.build_rt(["a", "b", "c", "d"])
        pieces, released = extract_surviving_complete_trees(rt, "c")
        surviving = sorted(
            leaf.port.processor for piece in pieces for leaf in iter_rt_nodes(piece) if isinstance(leaf, RTLeaf)
        )
        assert surviving == ["a", "b", "d"]

    def test_all_pieces_are_complete_and_alive(self):
        rt = self.build_rt([f"p{i}" for i in range(13)])
        pieces, _ = extract_surviving_complete_trees(rt, "p5")
        from repro.core.haft import is_complete

        for piece in pieces:
            assert is_complete(piece)
            for node in iter_rt_nodes(piece):
                owner = node.port.processor if isinstance(node, RTLeaf) else node.simulated_by.processor
                assert owner != "p5"

    def test_released_helpers_do_not_belong_to_dead_processor(self):
        rt = self.build_rt([f"p{i}" for i in range(9)])
        _pieces, released = extract_surviving_complete_trees(rt, "p0")
        assert all(port.processor != "p0" for port in released)

    def test_deleting_sole_leaf_yields_nothing(self):
        rt = self.build_rt(["a"])
        pieces, released = extract_surviving_complete_trees(rt, "a")
        assert pieces == []
        assert released == []

    def test_unrelated_deletion_strips_whole_rt(self):
        rt = self.build_rt(["a", "b", "c"])
        pieces, _released = extract_surviving_complete_trees(rt, "zzz")
        total = sum(piece.num_leaves for piece in pieces)
        assert total == 3

    def test_remerge_after_extraction_is_valid(self):
        rt = self.build_rt([f"p{i}" for i in range(11)])
        pieces, released = extract_surviving_complete_trees(rt, "p3")
        root, _ = compute_haft(pieces)
        merged = rt_from_merge(root)
        merged.validate()
        assert merged.size == 10
