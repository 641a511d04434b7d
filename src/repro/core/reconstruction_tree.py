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
* :func:`strip_walk` — the read-only fragment-strip walk of one RT a
  processor's death breaks (the distributed analogue is ``FindPrRoots`` /
  Algorithms A.5–A.6), as an :class:`RTStrip` whose :meth:`RTStrip.apply`
  then dismantles the RT; :class:`DeletionSurvey` holds one deletion's
  strips and new trivial leaf ports, taken once before the deletion and
  read both by the engine and by the distributed planner;
  :func:`extract_surviving_complete_trees` is the walk and its application
  in one call,
* :func:`merge_order` — ComputeHaft's merge order (Algorithm A.9), from
  which both :func:`compute_haft` (the merge of complete trees with the
  representative mechanism) and the distributed leader's merge build their
  helpers.

The engine in :mod:`repro.core.forgiving_graph` wires these pieces together.
"""

from __future__ import annotations

import itertools
from typing import (
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .errors import HaftStructureError, InvariantViolationError
from .haft import validate_haft
from .ports import NodeId, Port, port_order_key

__all__ = [
    "RTLeaf",
    "RTHelper",
    "RTNode",
    "ReconstructionTree",
    "RTStrip",
    "DeletionSurvey",
    "strip_walk",
    "extract_surviving_complete_trees",
    "merge_order",
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
        """The real processor that owns (simulates) this leaf.

        Hot paths read ``node.port.processor`` instead, which runs in C
        for a leaf and a helper alike (see :attr:`RTHelper.port`).
        """
        return self.port.processor

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


#: Every RT node names its port ``port``: a leaf its own, a helper the port
#: simulating it (the slot of ``simulated_by`` under a second name, so it
#: costs no memory).  The port names the node in a virtual edge's link
#: source and in every message, and ``node.port.processor`` reads the
#: owning processor without the Python call of the ``processor`` property.
RTHelper.port = RTHelper.simulated_by

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
        #: Strips applied to this RT so far: a :class:`RTStrip` walked at
        #: one count describes the tree only while the count stands.
        self.changes = 0

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
class RTStrip:
    """One RT's strip walk for a deletion, taken before the RT is touched.

    All leaves owned by the dead processor and all helpers it simulates
    vanish with it; the RT falls apart into fragments.  Following the
    paper's repair (Figures 7–8), only the *complete* subtrees that survive
    fully intact are kept — every other surviving helper is "marked red" and
    released (its simulating port becomes free again), while every
    surviving leaf is kept (at worst as a trivial complete tree of one
    leaf).  The walk (:func:`strip_walk`) only describes that outcome, in
    traversal order; :meth:`apply` carries it out.
    """

    __slots__ = ("rt", "dead", "changes", "pieces", "depths", "released", "cuts")

    def __init__(self, rt: ReconstructionTree, dead: List[RTNode]) -> None:
        self.rt = rt
        #: The RT nodes (leaves and helpers) owned by the dead processor.
        self.dead = dead
        #: ``rt.changes`` when the walk was taken.
        self.changes = rt.changes
        #: Roots of the surviving complete pieces, in discovery order.
        self.pieces: List[RTNode] = []
        #: Per piece, the depth the walk records for it: its own depth in the
        #: RT, except a left child split off an incomplete helper, which
        #: gets that helper's depth.
        self.depths: List[int] = []
        #: Surviving helpers outside every piece, released in this order;
        #: never the dead processor's own.
        self.released: List[RTHelper] = []
        #: Destroyed parent–child edges, as the ports of their two nodes
        #: (see :attr:`RTHelper.port`), those incident to dead nodes
        #: included.
        self.cuts: List[Tuple[Port, Port]] = []

    def apply(self) -> None:
        """Dismantle the RT as walked: detach the pieces and unlink the rest.

        The released helpers and the dead nodes leave the tree for good.
        Their parent and child links form reference cycles, so unlinking
        them lets reference counting free them now instead of a full
        collection later.  Every piece's parent is one of them, so a piece
        is detached by clearing its own parent.  Counts as a change of the
        RT; its lookup tables are the caller's to reconcile.
        """
        self.rt.changes += 1
        for node in self.pieces:
            node.parent = None
        for node in self.released:
            node.parent = node.left = node.right = node.representative = None
        for node in self.dead:
            node.parent = None
            if isinstance(node, RTHelper):
                node.left = node.right = node.representative = None


def strip_walk(rt: ReconstructionTree, dead_processor: NodeId, dead_nodes: List[RTNode]) -> RTStrip:
    """Walk the strip of ``rt`` that the death of ``dead_processor`` causes, read-only.

    The walk visits only the *broken* part of the tree: the paths from the
    dead nodes up to the root, plus the strip spines of the salvaged
    subtrees hanging off those paths.  Intact complete subtrees are never
    entered (completeness is the O(1) counter test of Algorithm A.6), which
    keeps a repair's cost proportional to the damage rather than to the
    size of the tree.  ``dead_nodes`` are the RT nodes owned by
    ``dead_processor``; with none, the whole tree is stripped as it is.
    """
    strip = RTStrip(rt, dead_nodes)
    pieces, depths, released, cuts = strip.pieces, strip.depths, strip.released, strip.cuts

    def collect_strip(node: RTNode, depth: int) -> None:
        """Strip a fully-alive subtree into complete pieces (primary roots).

        Every subtree of an RT is itself a haft, so this is exactly the
        Strip operation: complete subtrees are kept whole, alive glue nodes
        on the right spine are released.
        """
        while True:
            if node.num_leaves == (1 << node.height):
                pieces.append(node)
                depths.append(depth)
                return
            released.append(node)
            port = node.simulated_by
            left = node.left
            if left is not None:
                cuts.append((port, left.port))
                pieces.append(left)
                depths.append(depth)
            node = node.right
            if node is None:
                return
            cuts.append((port, node.port))
            depth += 1

    root = rt.root
    if isinstance(root, RTLeaf):
        if root.port.processor != dead_processor:
            pieces.append(root)
            depths.append(0)
        return strip
    if not dead_nodes:
        collect_strip(root, 0)
        return strip

    # Mark the broken region: every dead node plus every ancestor of a dead
    # node.  Identity-keyed, since RT nodes are plain objects.
    dead_ids = {id(dead) for dead in dead_nodes}
    broken: Dict[int, RTNode] = {id(dead): dead for dead in dead_nodes}
    for dead in dead_nodes:
        cursor = dead.parent
        while cursor is not None and id(cursor) not in broken:
            broken[id(cursor)] = cursor
            cursor = cursor.parent
    # Every child edge of a broken node is destroyed; children outside the
    # broken region root maximal fully-alive subtrees and are salvaged via
    # Strip.  Surviving broken helpers are released.
    for node in broken.values():
        if isinstance(node, RTLeaf):
            continue
        depth = 0
        cursor = node.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        port = node.simulated_by
        for child in (node.left, node.right):
            if child is not None:
                cuts.append((port, child.port))
                if id(child) not in broken:
                    collect_strip(child, depth + 1)
        if id(node) not in dead_ids:
            released.append(node)
    return strip


class DeletionSurvey(NamedTuple):
    """What deleting ``victim`` does to the RTs, read before anything changes.

    Taken by :meth:`repro.core.forgiving_graph.ForgivingGraph.survey`: the
    distributed planner describes it to the processors, and
    :meth:`~repro.core.forgiving_graph.ForgivingGraph.delete` applies it,
    so each deletion's strip is walked once.
    """

    victim: NodeId
    #: One strip per affected RT, in the order the walk of the victim's
    #: ``G'`` neighbours first meets the RTs.
    strips: List[RTStrip]
    #: The ports of the new trivial leaves: one per alive ``G'`` neighbour
    #: of the victim, ``(neighbour, victim)``, in neighbour order.
    trivial_ports: List[Port]


def extract_surviving_complete_trees(
    rt: ReconstructionTree, dead_processor: NodeId
) -> Tuple[List[RTNode], List[Port]]:
    """Break an RT touched by the deletion of ``dead_processor`` into complete trees.

    :func:`strip_walk` over the RT nodes ``dead_processor`` owns (found by a
    table scan), followed by :meth:`RTStrip.apply`, so ``rt`` is consumed:
    afterwards its lookup tables must no longer be used.  Returns the
    detached roots of the fully-alive complete subtrees, largest first and
    ready to be merged by :func:`compute_haft`, and the ports whose helper
    was released.
    """
    dead_nodes: List[RTNode] = [
        leaf for port, leaf in rt.leaves.items() if port.processor == dead_processor
    ]
    dead_nodes += [helper for port, helper in rt.helpers.items() if port.processor == dead_processor]
    strip = strip_walk(rt, dead_processor, dead_nodes)
    strip.apply()
    pieces = sorted(strip.pieces, key=lambda node: -node.num_leaves)
    return pieces, [helper.simulated_by for helper in strip.released]


# ---------------------------------------------------------------------- #
# ComputeHaft (Algorithm A.9) — merge with the representative mechanism
# ---------------------------------------------------------------------- #
def merge_order(sizes: Sequence[int], orders: Sequence[tuple]) -> List[Tuple[int, int]]:
    """ComputeHaft's merge order over complete pieces (Algorithm A.9).

    Piece ``i`` has ``sizes[i]`` leaves and the order ``orders[i]``, the
    :func:`~repro.core.ports.port_order_key` of its representative port.
    Returns ``(left, right)`` index pairs in creation order: pair ``k``
    makes the helper numbered ``len(sizes) + k``, whose children are
    ``left`` and ``right``; it is simulated by ``left``'s representative and
    inherits ``right``'s, and with it ``right``'s order.  The last helper is
    the root.

    The forest is combined exactly like binary addition.  Phase 1 combines
    equal-sized pieces, smallest size first: a size's pieces, in order,
    pair up first with second, third with fourth and so on, each pair's
    helper joins the pieces of twice the size, and an odd one out is left
    over.  Phase 2 chains the leftovers, all of distinct sizes, smallest
    first, the larger tree always on the left, so every prefix is a haft.

    The order is total and survives id relabelings: equal sizes tie-break
    on the representative ports' node ids in their *natural* order, not on
    reprs, so isomorphic inputs whose ids map monotonically onto each other
    produce identical hafts.  Pieces with equal orders keep their input
    order.
    """
    order_of = list(orders)
    by_size: Dict[int, List[int]] = {}
    for index, size in enumerate(sizes):
        group = by_size.get(size)
        if group is None:
            by_size[size] = [index]
        else:
            group.append(index)
    pairs: List[Tuple[int, int]] = []
    forest: List[int] = []
    while by_size:
        size = min(by_size)
        group = by_size.pop(size)
        if len(group) == 1:
            forest.append(group[0])
            continue
        # A group lists its pieces in index order, so the stable sort keeps
        # equal orders in input order.
        group.sort(key=order_of.__getitem__)
        carried = by_size.setdefault(2 * size, [])
        for i in range(1, len(group), 2):
            right = group[i]
            pairs.append((group[i - 1], right))
            carried.append(len(order_of))
            order_of.append(order_of[right])
        if len(group) % 2:
            forest.append(group[-1])
    root, made = forest[0], len(order_of)
    for tree in forest[1:]:
        pairs.append((tree, root))
        root = made
        made += 1
    return pairs


def compute_haft(
    complete_roots: Sequence[RTNode],
    busy_ports: Optional[Container[Port]] = None,
) -> Tuple[RTNode, List[RTHelper]]:
    """Merge complete trees into a single haft using representative helpers.

    This is the centralized equivalent of ``ComputeHaft`` (Algorithm A.9):
    the forest of complete trees (all of different provenance — surviving
    pieces of broken RTs plus trivial leaves of the deleted node's
    neighbours) is combined in :func:`merge_order`, and every new internal
    node is a fresh :class:`RTHelper` simulated by the representative of one
    of the two trees it joins, inheriting the representative of the other.

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
        The root of the merged haft and the list of helper nodes created,
        in creation order.
    """
    if not complete_roots:
        raise ValueError("compute_haft() requires at least one complete tree")
    busy: Container[Port] = busy_ports if busy_ports is not None else ()
    nodes: List[RTNode] = list(complete_roots)
    representatives = [representative_of(node) for node in nodes]
    pairs = merge_order(
        [node.num_leaves for node in nodes],
        [port_order_key(representative.port) for representative in representatives],
    )
    claimed: Set[Port] = set()
    new_helpers: List[RTHelper] = []
    for left, right in pairs:
        port = representatives[left].port
        if port in busy or port in claimed:
            raise InvariantViolationError(
                f"representative mechanism picked busy port {port} to simulate a helper"
            )
        claimed.add(port)
        helper = RTHelper(simulated_by=port)
        helper.attach_children(nodes[left], nodes[right])
        helper.representative = inherited = representatives[right]
        nodes.append(helper)
        representatives.append(inherited)
        new_helpers.append(helper)
    return nodes[-1], new_helpers
