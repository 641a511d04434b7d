"""Reconstruction trees (RTs) — Sections 3 and 4.2 of the paper.

When the adversary deletes a node ``v``, the Forgiving Graph conceptually
replaces ``v`` by a *Reconstruction Tree* ``RT(v)``: a half-full tree whose
leaves are the **ports** of the surviving neighbours (one leaf per ``G'``
edge incident to a deleted node) and whose internal nodes are **helper**
(virtual) nodes, each simulated by a real processor.  After many deletions
the RTs of different deleted nodes merge, so the data structure maintains a
forest of RTs covering all "holes" the adversary has punched into the graph.

The crucial bookkeeping device is the **representative mechanism**
(Section 4.2): every subtree of an RT with ``L`` leaves contains exactly
``L - 1`` helper nodes, each simulated by the processor owning a *distinct*
leaf of that subtree; the one leaf that is not simulating a helper inside the
subtree is the subtree's *representative*, and it is the processor that will
simulate the next helper created on top of the subtree.  This is what keeps
the per-node degree increase bounded (Lemma 3 / Theorem 1.1).

This module provides:

* :class:`RTLeaf` / :class:`RTHelper` — the node types,
* :class:`ReconstructionTree` — a single RT with port-indexed lookups,
* :func:`extract_surviving_complete_trees` — the fragment-strip step run when
  a processor dies (the distributed analogue is ``FindPrRoots`` /
  Algorithm A.5),
* :func:`compute_haft` — the merge of complete trees with the representative
  mechanism (``ComputeHaft`` / Algorithm A.9).

The engine in :mod:`repro.core.forgiving_graph` wires these pieces together.
"""

from __future__ import annotations

import bisect
import itertools
from operator import itemgetter
from typing import Container, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .errors import HaftStructureError, InvariantViolationError
from .haft import validate_haft
from .ports import NodeId, Port, port_order_key

__all__ = [
    "RTLeaf",
    "RTHelper",
    "RTNode",
    "ReconstructionTree",
    "extract_surviving_complete_trees",
    "compute_haft",
    "representative_of",
]


class RTLeaf:
    """A *real node* of the virtual graph: the port of a ``G'`` edge.

    The leaf for port ``(v, x)`` exists exactly while ``v`` is alive and
    ``x`` has been deleted; it is owned (simulated) by processor ``v``.
    """

    __slots__ = ("port", "parent")

    def __init__(self, port: Port) -> None:
        self.port = port
        self.parent: Optional["RTHelper"] = None

    # --- haft-node protocol -------------------------------------------------
    left = None
    right = None
    height = 0
    num_leaves = 1

    @property
    def is_leaf(self) -> bool:
        return True

    @property
    def processor(self) -> NodeId:
        """The real processor that owns (simulates) this leaf."""
        return self.port.processor

    def detach(self) -> None:
        """Disconnect this leaf from its parent helper, if any."""
        parent = self.parent
        if parent is None:
            return
        if parent.left is self:
            parent.left = None
        if parent.right is self:
            parent.right = None
        self.parent = None

    def root(self) -> "RTNode":
        node: RTNode = self
        while node.parent is not None:
            node = node.parent
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RTLeaf({self.port.processor!r}|{self.port.neighbor!r})"


class RTHelper:
    """A *helper node*: a virtual internal node of an RT.

    ``helper(v, x)`` is simulated by processor ``v`` (the owner of port
    ``(v, x)``) and, by construction, is always an ancestor of the leaf of
    the same port.  A helper has at most three incident virtual edges
    (parent, left child, right child), which is what bounds the degree
    increase of the simulating processor.
    """

    __slots__ = ("simulated_by", "parent", "left", "right", "height", "num_leaves", "representative")

    def __init__(self, simulated_by: Port) -> None:
        self.simulated_by = simulated_by
        self.parent: Optional["RTHelper"] = None
        self.left: Optional[RTNode] = None
        self.right: Optional[RTNode] = None
        self.height = 1
        self.num_leaves = 0
        #: The unique leaf of this helper's subtree whose processor is not
        #: simulating any helper inside the subtree.
        self.representative: Optional[RTLeaf] = None

    @property
    def is_leaf(self) -> bool:
        return False

    @property
    def processor(self) -> NodeId:
        """The real processor simulating this helper node."""
        return self.simulated_by.processor

    def attach_children(self, left: "RTNode", right: "RTNode") -> None:
        """Set both children and refresh the cached height / leaf count."""
        self.left = left
        self.right = right
        left.parent = self
        right.parent = self
        self.height = 1 + max(left.height, right.height)
        self.num_leaves = left.num_leaves + right.num_leaves

    def detach(self) -> None:
        """Disconnect this helper from its parent, if any."""
        parent = self.parent
        if parent is None:
            return
        if parent.left is self:
            parent.left = None
        if parent.right is self:
            parent.right = None
        self.parent = None

    def root(self) -> "RTNode":
        node: RTNode = self
        while node.parent is not None:
            node = node.parent
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RTHelper(sim={self.simulated_by.processor!r}|{self.simulated_by.neighbor!r}, "
            f"leaves={self.num_leaves}, h={self.height})"
        )


RTNode = Union[RTLeaf, RTHelper]

_rt_id_counter = itertools.count(1)


def representative_of(node: RTNode) -> RTLeaf:
    """Return the representative leaf of ``node`` (the node itself for a leaf)."""
    if isinstance(node, RTLeaf):
        return node
    if node.representative is None:
        raise InvariantViolationError(f"helper {node!r} has no representative")
    return node.representative


class ReconstructionTree:
    """A single reconstruction tree with port-indexed lookup tables.

    Attributes
    ----------
    rt_id:
        A process-unique integer identifier (useful for debugging and for
        grouping nodes of the virtual graph by RT).
    root:
        The root node; an :class:`RTLeaf` for a trivial single-leaf RT,
        otherwise an :class:`RTHelper`.
    leaves:
        Mapping from port to its leaf node.
    helpers:
        Mapping from port to the helper node simulated by that port's
        processor inside this RT (Lemma 3: at most one per port).
    """

    def __init__(self, root: RTNode, leaves: Dict[Port, RTLeaf], helpers: Dict[Port, RTHelper]) -> None:
        self.rt_id = next(_rt_id_counter)
        self.root = root
        self.leaves = leaves
        self.helpers = helpers

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def trivial(cls, port: Port) -> "ReconstructionTree":
        """Create a single-leaf RT for ``port`` (a neighbour that just lost its edge)."""
        leaf = RTLeaf(port)
        return cls(root=leaf, leaves={port: leaf}, helpers={})

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        """Number of leaves of this RT."""
        return len(self.leaves)

    @property
    def depth(self) -> int:
        """Height of the RT (0 for a trivial RT)."""
        return self.root.height

    def ports(self) -> Iterable[Port]:
        """Iterate over the leaf ports of this RT."""
        return self.leaves.keys()

    def processors(self) -> Set[NodeId]:
        """Set of real processors owning at least one leaf of this RT."""
        return {port.processor for port in self.leaves}

    def virtual_edges(self) -> Iterator[Tuple[RTNode, RTNode]]:
        """Yield the parent-child edges of this RT (virtual-graph edges)."""
        stack: List[RTNode] = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, RTHelper):
                for child in (node.left, node.right):
                    if child is not None:
                        yield (node, child)
                        stack.append(child)

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check every structural invariant of this RT.

        Raises :class:`InvariantViolationError` (or
        :class:`HaftStructureError`) on any inconsistency.  Checked:

        * the tree is a valid haft;
        * the lookup tables match the tree contents exactly;
        * every helper is simulated by the processor of a leaf of this RT
          and is an ancestor of that processor's leaf for the same port;
        * every subtree with ``L`` leaves contains exactly ``L - 1``
          helpers, and the cached representative is the unique leaf of the
          subtree whose port simulates no helper inside the subtree.
        """
        if self.size == 0:
            raise InvariantViolationError("an RT must have at least one leaf")
        if self.size > 1:
            try:
                validate_haft(self.root)  # duck-typed: RT nodes expose the haft protocol
            except HaftStructureError as exc:
                raise InvariantViolationError(f"RT {self.rt_id} is not a valid haft: {exc}") from exc
        seen_leaves: Dict[Port, RTLeaf] = {}
        seen_helpers: Dict[Port, RTHelper] = {}
        for node in iter_rt_nodes(self.root):
            if isinstance(node, RTLeaf):
                if node.port in seen_leaves:
                    raise InvariantViolationError(f"port {node.port} appears twice as a leaf")
                seen_leaves[node.port] = node
            else:
                if node.simulated_by in seen_helpers:
                    raise InvariantViolationError(
                        f"port {node.simulated_by} simulates two helpers in RT {self.rt_id}"
                    )
                seen_helpers[node.simulated_by] = node
        if seen_leaves != self.leaves or seen_helpers != self.helpers:
            raise InvariantViolationError(f"lookup tables of RT {self.rt_id} are stale")
        # helper <-> leaf pairing (Lemma 3 and the ancestor property)
        for port, helper in self.helpers.items():
            if port not in self.leaves:
                raise InvariantViolationError(
                    f"helper for port {port} exists but the port is not a leaf of RT {self.rt_id}"
                )
            leaf = self.leaves[port]
            if not _is_ancestor(helper, leaf):
                raise InvariantViolationError(
                    f"helper for port {port} is not an ancestor of its own leaf"
                )
        # representative mechanism
        for node in iter_rt_nodes(self.root):
            if isinstance(node, RTHelper):
                self._validate_representative(node)

    def _validate_representative(self, helper: RTHelper) -> None:
        subtree_leaves = [n for n in iter_rt_nodes(helper) if isinstance(n, RTLeaf)]
        subtree_helpers = [n for n in iter_rt_nodes(helper) if isinstance(n, RTHelper)]
        if len(subtree_helpers) != len(subtree_leaves) - 1:
            raise InvariantViolationError(
                f"subtree of {helper!r} has {len(subtree_helpers)} helpers "
                f"for {len(subtree_leaves)} leaves"
            )
        simulating_ports = {h.simulated_by for h in subtree_helpers}
        free_leaves = [leaf for leaf in subtree_leaves if leaf.port not in simulating_ports]
        if len(free_leaves) != 1:
            raise InvariantViolationError(
                f"subtree of {helper!r} has {len(free_leaves)} representative candidates"
            )
        if helper.representative is not free_leaves[0]:
            raise InvariantViolationError(
                f"cached representative of {helper!r} is not the free leaf of its subtree"
            )


# ---------------------------------------------------------------------- #
# traversal / utilities
# ---------------------------------------------------------------------- #
def iter_rt_nodes(root: RTNode) -> Iterator[RTNode]:
    """Yield every node of the subtree rooted at ``root`` in pre-order."""
    stack: List[RTNode] = [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, RTHelper):
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)


def _is_ancestor(ancestor: RTNode, node: RTNode) -> bool:
    current: Optional[RTNode] = node
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False


# ---------------------------------------------------------------------- #
# fragment stripping after a deletion (distributed analogue: FindPrRoots)
# ---------------------------------------------------------------------- #
def extract_surviving_complete_trees(
    rt: ReconstructionTree,
    dead_processor: NodeId,
    removed_edges: Optional[List[Tuple[NodeId, NodeId]]] = None,
    dead_nodes: Optional[List[RTNode]] = None,
) -> Tuple[List[RTNode], List[Port]]:
    """Break an RT touched by the deletion of ``dead_processor`` into complete trees.

    All leaves owned by ``dead_processor`` and all helpers simulated by it
    vanish with the processor; the RT falls apart into fragments.  Following
    the paper's repair (Figures 7–8), only the *complete* subtrees that
    survive fully intact are kept — every other surviving helper is "marked
    red" and released (its simulating port becomes free again), while every
    surviving leaf is kept (at worst as a trivial complete tree of one leaf).

    The dismantling walks only the *broken* part of the tree: the paths from
    the dead nodes up to the root, plus the strip spines of the salvaged
    subtrees hanging off those paths.  Intact complete subtrees are never
    entered (completeness is the O(1) counter test of Algorithm A.6), which
    is what keeps the centralized repair cost proportional to the damage
    rather than to the size of the tree.

    Parameters
    ----------
    rt:
        The reconstruction tree to dismantle.  It is consumed by this call:
        afterwards its lookup tables must no longer be used (the engine
        reconciles them itself).
    dead_processor:
        The processor the adversary just deleted.
    removed_edges:
        Optional accumulator.  When given, every virtual edge destroyed by
        the dismantling (i.e. every parent-child edge of ``rt`` that is not
        internal to a surviving complete piece) is appended as a projected
        ``(processor, processor)`` pair.  The engine uses this to apply
        exact healed-graph deltas: edges inside surviving pieces are carried
        over to the merged RT untouched, so only the destroyed glue needs
        accounting.
    dead_nodes:
        The RT nodes (leaves and helpers) owned by ``dead_processor``, when
        the caller already knows them (the engine finds them through its
        port registries in O(degree)).  Computed here by a table scan when
        omitted.

    Returns
    -------
    (complete_roots, released_helper_ports):
        ``complete_roots`` are detached roots of fully-alive complete
        subtrees (largest first), ready to be merged by :func:`compute_haft`.
        ``released_helper_ports`` lists the ports whose helper node was
        discarded (so the engine can clear its helper registry).
    """
    complete_roots: List[RTNode] = []
    released: List[Port] = []
    #: The released helpers themselves, unlinked once the walk is done.
    discarded: List[RTHelper] = []

    if dead_nodes is None:
        dead_nodes = [
            leaf for port, leaf in rt.leaves.items() if port.processor == dead_processor
        ]
        dead_nodes += [
            helper
            for port, helper in rt.helpers.items()
            if port.processor == dead_processor
        ]

    def record_cut(parent: RTHelper, child: RTNode) -> None:
        if removed_edges is not None:
            removed_edges.append((parent.processor, child.processor))

    def collect_strip(node: RTNode) -> None:
        """Strip a fully-alive subtree into complete pieces (primary roots).

        Every subtree of an RT is itself a haft, so this is exactly the
        Strip operation: complete subtrees are kept whole, alive glue nodes
        on the right spine are released.  Completeness is decided from the
        eagerly-maintained counters (``num_leaves == 2^height``), so intact
        pieces are never traversed.
        """
        while True:
            if node.num_leaves == (1 << node.height):
                complete_roots.append(node)
                return
            released.append(node.simulated_by)
            discarded.append(node)
            if node.left is not None:
                record_cut(node, node.left)
                complete_roots.append(node.left)
            right = node.right
            if right is None:
                return
            record_cut(node, right)
            node = right

    root = rt.root
    if isinstance(root, RTLeaf):
        if root.port.processor != dead_processor:
            complete_roots.append(root)
        return complete_roots, released

    if not dead_nodes:
        # The dead processor never actually appeared in this RT (possible
        # for callers outside the engine) — strip the whole tree as-is.
        collect_strip(root)
    else:
        # Mark the broken region: every dead node plus every ancestor of a
        # dead node.  Identity-keyed, since RT nodes are plain objects.
        dead_ids = {id(dead) for dead in dead_nodes}
        broken: Dict[int, RTNode] = {id(dead): dead for dead in dead_nodes}
        for dead in dead_nodes:
            cursor = dead.parent
            while cursor is not None and id(cursor) not in broken:
                broken[id(cursor)] = cursor
                cursor = cursor.parent
        # Every child edge of a broken node is destroyed; children outside
        # the broken region root maximal fully-alive subtrees and are
        # salvaged via Strip.  Surviving broken helpers are released.
        for node in broken.values():
            if isinstance(node, RTLeaf):
                continue
            for child in (node.left, node.right):
                if child is not None:
                    record_cut(node, child)
                    if id(child) not in broken:
                        collect_strip(child)
            if id(node) not in dead_ids:
                released.append(node.simulated_by)
                discarded.append(node)

    for node in complete_roots:
        node.detach()
    # The released helpers and the dead nodes leave the tree for good.  Their
    # parent and child links form reference cycles, so unlinking them lets
    # reference counting free them now instead of a full collection later.
    for node in discarded:
        node.parent = node.left = node.right = node.representative = None
    for node in dead_nodes:
        node.parent = None
        if isinstance(node, RTHelper):
            node.left = node.right = node.representative = None
    complete_roots.sort(key=lambda n: -n.num_leaves)
    return complete_roots, released


# ---------------------------------------------------------------------- #
# ComputeHaft (Algorithm A.9) — merge with the representative mechanism
# ---------------------------------------------------------------------- #
#: Sort key of the ``(key, tree)`` pairs :func:`compute_haft` merges.
_forest_key = itemgetter(0)


def compute_haft(
    complete_roots: Sequence[RTNode],
    busy_ports: Optional[Container[Port]] = None,
) -> Tuple[RTNode, List[RTHelper]]:
    """Merge complete trees into a single haft using representative helpers.

    This is the centralized equivalent of ``ComputeHaft`` (Algorithm A.9):
    the forest of complete trees (all of different provenance — surviving
    pieces of broken RTs plus trivial leaves of the deleted node's
    neighbours) is combined exactly like binary addition, and every new
    internal node is a fresh :class:`RTHelper` simulated by the
    representative of one of the two trees it joins, inheriting the
    representative of the other.

    Parameters
    ----------
    complete_roots:
        Detached roots of complete trees (leaves are :class:`RTLeaf`,
        internal nodes :class:`RTHelper`).  Must be non-empty.
    busy_ports:
        Ports that are already simulating a helper node elsewhere: any
        container, checked in place with ``in`` and never copied or
        iterated, so the engine passes its helper registry itself (it
        registers the new helpers only after this returns).  Used as a
        safety net: the representative mechanism guarantees the ports it
        picks are free, and this function raises
        :class:`InvariantViolationError` if a picked port is busy or was
        already claimed by this merge.

    Returns
    -------
    (root, new_helpers):
        The root of the merged haft and the list of helper nodes created.
    """
    if not complete_roots:
        raise ValueError("compute_haft() requires at least one complete tree")
    busy: Container[Port] = busy_ports if busy_ports is not None else ()
    claimed: Set[Port] = set()
    new_helpers: List[RTHelper] = []

    def make_helper(simulating_rep: RTLeaf, inherited_rep: RTLeaf, left: RTNode, right: RTNode) -> RTHelper:
        port = simulating_rep.port
        if port in busy or port in claimed:
            raise InvariantViolationError(
                f"representative mechanism picked busy port {port} to simulate a helper"
            )
        helper = RTHelper(simulated_by=port)
        helper.attach_children(left, right)
        helper.representative = inherited_rep
        claimed.add(port)
        new_helpers.append(helper)
        return helper

    # Merge order must be a total order that survives id relabelings: equal
    # sizes tie-break on the representative port's node ids in their *natural*
    # order (port_order_key), not on reprs, so isomorphic inputs whose ids map
    # monotonically onto each other produce identical hafts.  The forest holds
    # ``(key, tree)`` pairs: each input's key is computed once, and a new
    # helper's key reuses the one of the tree whose representative it inherits.
    forest: List[Tuple[Tuple[int, tuple], RTNode]] = sorted(
        (
            ((node.num_leaves, port_order_key(representative_of(node).port)), node)
            for node in complete_roots
        ),
        key=_forest_key,
    )
    if len(forest) == 1:
        return forest[0][1], new_helpers

    # Phase 1 — combine equal-sized complete trees (binary-addition carries).
    i = 0
    while i < len(forest) - 1:
        (_, a), (b_key, b) = forest[i], forest[i + 1]
        if a.num_leaves == b.num_leaves:
            helper = make_helper(
                simulating_rep=representative_of(a),
                inherited_rep=representative_of(b),
                left=a,
                right=b,
            )
            del forest[i : i + 2]
            bisect.insort_left(forest, ((helper.num_leaves, b_key[1]), helper), key=_forest_key)
            i = max(i - 1, 0)
        else:
            i += 1

    # Phase 2 — chain the distinct-sized complete trees smallest-first; the
    # larger tree is always the left child so every prefix is a haft.
    root = forest[0][1]
    for _, tree in forest[1:]:
        helper = make_helper(
            simulating_rep=representative_of(tree),
            inherited_rep=representative_of(root),
            left=tree,
            right=root,
        )
        root = helper
    return root, new_helpers
