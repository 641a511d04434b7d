"""The message-native merge: healed structure computed from message payloads.

Until PR 4 the distributed simulator replayed the *communication pattern* of
a repair faithfully but took the *structural outcome* (which helper nodes
exist, who simulates them, the shape of the merged reconstruction tree) from
the embedded centralized engine — processors could never disagree.  This
module removes that substitution:

* :class:`PieceSummary` is the O(1)-word descriptor of one surviving
  complete tree — exactly the information the paper's ``FindPrRoots`` probes
  collect (root identity, leaf count, height, representative port).  It is
  the payload of :class:`~repro.distributed.messages.PrimaryRootReport` /
  :class:`~repro.distributed.messages.PrimaryRootList` messages, so the
  merge leader only ever knows the pieces whose descriptors actually
  *arrived*.

* :func:`plan_strip` is the read-only twin of
  :func:`repro.core.reconstruction_tree.extract_surviving_complete_trees`:
  it inspects an affected RT *before* the deletion is applied and lays out
  the repair's local knowledge — which complete pieces survive (as
  summaries), which helpers are released ("marked red"), and which virtual
  edges break.  Each item is attributed to the processor that knows it
  locally, so the protocol can hand every participant exactly its own
  pre-failure knowledge and nothing more.

* :func:`merge_summaries` replays ``ComputeHaft`` (Algorithm A.9) — the
  binary-addition combine plus the representative mechanism — purely on
  summaries, producing a :class:`MergeOutcome`: the new helper nodes (with
  simulating port, children, parent, representative) and the healed-graph
  link sources they imply.  Given the full summary set it is provably
  identical to the engine's :func:`~repro.core.reconstruction_tree.compute_haft`
  (both sort by ``(num_leaves, port_order_key(representative))`` and combine
  identically); given a *partial* set — messages were dropped — it yields a
  self-consistent but divergent structure, which is what the simulator's
  reconvergence loop detects and repairs.

The centralized engine is retained only as an *oracle*: the equivalence
tests assert that the message-native structure converges to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from operator import itemgetter
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.ports import NodeId, Port, port_order_key
from ..core.reconstruction_tree import (
    ReconstructionTree,
    RTHelper,
    RTLeaf,
    RTNode,
    representative_of,
)
from .messages import HelperAssignment, ParentUpdate, payload_checksum

__all__ = [
    "PieceSummary",
    "StripPlan",
    "MergedHelper",
    "MergeOutcome",
    "helper_assignment",
    "helper_retraction",
    "parent_update",
    "plan_strip",
    "merge_summaries",
    "link_source_key",
    "real_source_key",
    "trivial_summary",
]

#: Identifier words one serialized :class:`PieceSummary` occupies in a
#: message (root port, representative port, leaf count, height).
SUMMARY_WORDS = 4


def link_source_key(parent_port: Port, child_port: Port) -> Tuple[str, Port, Port]:
    """The source key a virtual RT edge contributes to a healed-graph link.

    Mirrors the engine's edge-multiplicity bookkeeping: one source per
    parent-child edge of a reconstruction tree, identified by the ports of
    the two virtual nodes (a helper's ``simulated_by`` or a leaf's port).
    """
    return ("rt", parent_port, child_port)


def real_source_key(u: NodeId, v: NodeId) -> Tuple[str, FrozenSet[NodeId]]:
    """The source key a surviving real ``G'`` edge contributes to its link."""
    return ("real", frozenset((u, v)))


@dataclass(frozen=True, init=False)
class PieceSummary:
    """O(1)-word descriptor of one surviving complete tree (a primary root).

    Its hash is taken once, at construction, over the same field tuple the
    generated ``__hash__`` would hash on every call: descriptors are set
    members and dict keys on every hop of a repair.  The cached hash is left
    out of pickles, since str hashes differ between processes.  So is its
    :attr:`identity`, built once too, since every hop's witness table keys
    by it.  The dataclass supplies equality, repr and the frozen
    ``__setattr__``; the one constructor below writes the instance dict
    directly, where a frozen dataclass's generated ``__init__`` pays an
    ``object.__setattr__`` call per field.
    """

    #: Port identifying the piece's root: a leaf's port or a helper's
    #: ``simulated_by`` port.
    root_port: Port
    #: True when the root is a leaf (trivial single-leaf piece).
    root_is_leaf: bool
    #: Number of leaves of the piece (a power of two — the piece is complete).
    num_leaves: int
    #: Height of the piece (0 for a leaf).
    height: int
    #: The piece's representative leaf port (the one free processor that will
    #: simulate the next helper created on top of it).
    representative: Port

    def __init__(
        self,
        root_port: Port,
        root_is_leaf: bool,
        num_leaves: int,
        height: int,
        representative: Port,
    ) -> None:
        state = self.__dict__
        state["root_port"] = root_port
        state["root_is_leaf"] = root_is_leaf
        state["num_leaves"] = num_leaves
        state["height"] = height
        state["representative"] = representative
        state["_hash"] = hash((root_port, root_is_leaf, num_leaves, height, representative))
        #: The piece this descriptor describes, ``(root_port, root_is_leaf)``:
        #: honest descriptors with one identity are equal within a repair.
        state["identity"] = (root_port, root_is_leaf)

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_hash"], state["identity"]
        return state

    def __setstate__(self, state: dict) -> None:
        # The fields rebuild the hash and identity; the state adds a frozen
        # checksum, if one was read before pickling.
        self.__init__(*(state[f.name] for f in fields(self)))
        self.__dict__.update(state)

    def content_checksum(self) -> int:
        return payload_checksum(
            "PieceSummary",
            self.root_port,
            self.root_is_leaf,
            self.num_leaves,
            self.height,
            self.representative,
        )

    #: Content checksum, computed on its first read and cached; not a field,
    #: so equality, hash and repr (which the message seals cover) stay purely
    #: semantic.  No honest path reads it.  The byzantine fault layer reads
    #: the author's checksum before it builds a lie
    #: (``FaultSchedule._corrupt_summaries``), which freezes the honest tag,
    #: and copies it onto the lie — the mismatch is what any receiver can
    #: detect locally.  A byzantine *author* instead sends a self-consistent
    #: lie whose checksum nobody froze (valid), caught only by cross-witnessing.
    checksum = cached_property(content_checksum)

    def checksum_valid(self) -> bool:
        """True unless a frozen checksum disagrees with the content.

        A descriptor whose checksum nobody read was never tampered with
        (every tampering path freezes the honest tag first), so it verifies
        for free, like a message whose seal nobody read.
        """
        frozen = self.__dict__.get("checksum")
        return frozen is None or frozen == self.content_checksum()


def trivial_summary(neighbor: NodeId, victim: NodeId) -> PieceSummary:
    """The single-leaf piece a directly-connected neighbour contributes."""
    port = Port(neighbor, victim)
    return PieceSummary(
        root_port=port, root_is_leaf=True, num_leaves=1, height=0, representative=port
    )


def summary_of(node: RTNode) -> PieceSummary:
    """Summarize a complete subtree root (reads only O(1) cached counters)."""
    if isinstance(node, RTLeaf):
        return PieceSummary(
            root_port=node.port,
            root_is_leaf=True,
            num_leaves=1,
            height=0,
            representative=node.port,
        )
    return PieceSummary(
        root_port=node.simulated_by,
        root_is_leaf=False,
        num_leaves=node.num_leaves,
        height=node.height,
        representative=representative_of(node).port,
    )


@dataclass
class StripPlan:
    """Read-only strip of one affected RT: the repair's pre-failure knowledge."""

    #: Summaries of the surviving complete pieces, in discovery order.
    summaries: List[PieceSummary] = field(default_factory=list)
    #: For each summary, the index into the RT's probe path of the spine
    #: processor that reports it (deeper pieces need the probe to travel
    #: further before their descriptor starts flowing back).
    spine_positions: List[int] = field(default_factory=list)
    #: Ports whose helper is released ("marked red"), grouped by the owning
    #: processor — releasing is a local action triggered by the probe.
    released_by_processor: Dict[NodeId, List[Port]] = field(default_factory=dict)
    #: Destroyed virtual edges as (source key, endpoint, endpoint) triples,
    #: grouped by the surviving processor that owns the parent side and drops
    #: the link source locally.  Edges incident to the dead processor are
    #: omitted: its removal purges them wholesale.
    glue_by_processor: Dict[NodeId, List[Tuple[Tuple, NodeId, NodeId]]] = field(
        default_factory=dict
    )


def _node_port(node: RTNode) -> Port:
    return node.port if isinstance(node, RTLeaf) else node.simulated_by


def plan_strip(
    rt: ReconstructionTree,
    dead_processor: NodeId,
    dead_nodes: Sequence[RTNode],
    probe_path: Sequence[NodeId],
) -> StripPlan:
    """Lay out the strip of one affected RT without mutating it.

    Mirrors :func:`extract_surviving_complete_trees` (same traversal, same
    completeness test, same released set) but only *describes* the outcome:
    the engine still performs the real dismantling when the oracle runs.
    ``probe_path`` is the RT's right spine; every discovered item is
    attributed to a spine position / owning processor so the protocol can
    distribute the knowledge.
    """
    plan = StripPlan()
    path_index = {proc: i for i, proc in enumerate(probe_path)}
    last_position = max(len(probe_path) - 1, 0)

    def position_of(processor: NodeId, depth: int) -> int:
        if processor in path_index:
            return path_index[processor]
        return min(depth, last_position)

    def add_piece(node: RTNode, depth: int) -> None:
        plan.summaries.append(summary_of(node))
        plan.spine_positions.append(position_of(node.processor, depth))

    def release(helper: RTHelper) -> None:
        if helper.processor != dead_processor:
            plan.released_by_processor.setdefault(helper.processor, []).append(
                helper.simulated_by
            )

    def record_cut(parent: RTNode, child: RTNode) -> None:
        p, c = parent.processor, child.processor
        if p == c or dead_processor in (p, c):
            return  # self-projections carry no link; dead-incident links are purged
        key = link_source_key(_node_port(parent), _node_port(child))
        plan.glue_by_processor.setdefault(p, []).append((key, p, c))

    def depth_of(node: RTNode) -> int:
        depth = 0
        cursor = node.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        return depth

    def collect_strip(node: RTNode, depth: int) -> None:
        while True:
            if node.num_leaves == (1 << node.height):
                add_piece(node, depth)
                return
            release(node)
            if node.left is not None:
                record_cut(node, node.left)
                add_piece(node.left, depth)
            right = node.right
            if right is None:
                return
            record_cut(node, right)
            node = right
            depth += 1

    root = rt.root
    if isinstance(root, RTLeaf):
        if root.port.processor != dead_processor:
            add_piece(root, 0)
        return plan

    if not dead_nodes:
        collect_strip(root, 0)
        return plan

    dead_ids = {id(dead) for dead in dead_nodes}
    broken: Dict[int, RTNode] = {id(dead): dead for dead in dead_nodes}
    for dead in dead_nodes:
        cursor = dead.parent
        while cursor is not None and id(cursor) not in broken:
            broken[id(cursor)] = cursor
            cursor = cursor.parent
    for node in broken.values():
        if isinstance(node, RTLeaf):
            continue
        node_depth = depth_of(node)
        for child in (node.left, node.right):
            if child is not None:
                record_cut(node, child)
                if id(child) not in broken:
                    collect_strip(child, node_depth + 1)
        if id(node) not in dead_ids:
            release(node)
    return plan


# --------------------------------------------------------------------------- #
# ComputeHaft on summaries (the leader's local computation)
# --------------------------------------------------------------------------- #
class MergedHelper(NamedTuple):
    """One helper node the merge creates, described entirely by ports.

    A named tuple: equality, hash and repr read as a frozen dataclass's
    would, for a fraction of its build cost (the leader builds one per new
    helper).
    """

    #: Port whose processor simulates the helper.
    port: Port
    left_port: Port
    left_is_leaf: bool
    right_port: Port
    right_is_leaf: bool
    #: ``None`` for the root of the merged haft; filled for every other helper.
    parent_port: Optional[Port]
    height: int
    num_leaves: int
    #: Representative leaf port of the helper's subtree.
    representative: Port


def helper_assignment(
    sender: NodeId, victim: NodeId, helper: MergedHelper, epoch: int
) -> HelperAssignment:
    """The instruction that makes ``helper``'s owner simulate it."""
    port, left, _, right, _, parent, height, num_leaves, representative = helper
    return HelperAssignment(
        sender, port.processor, victim, port, parent, left, right, True, representative,
        height, num_leaves, epoch,
    )


def helper_retraction(sender: NodeId, victim: NodeId, port: Port, epoch: int) -> HelperAssignment:
    """The instruction that drops the helper ``port``'s owner simulates for ``victim``."""
    return HelperAssignment(sender, port.processor, victim, port, None, None, None, False, None, 0, 0, epoch)


def parent_update(
    sender: NodeId,
    victim: NodeId,
    child_port: Port,
    child_is_leaf: bool,
    parent_port: Port,
    epoch: int,
) -> ParentUpdate:
    """The instruction that re-parents one piece root (a ``parent_updates`` entry)."""
    return ParentUpdate(
        sender, child_port.processor, victim, child_port, parent_port, not child_is_leaf, epoch
    )


@dataclass
class MergeOutcome:
    """Everything a repair must apply, derived purely from received summaries."""

    victim: NodeId
    #: The summaries this outcome was computed from (the leader's knowledge).
    summaries: Tuple[PieceSummary, ...]
    #: New helpers in creation order (matching the engine's ``compute_haft``).
    helpers: List[MergedHelper] = field(default_factory=list)
    #: Root of the merged haft (a piece root or a new helper port).
    root_port: Optional[Port] = None
    root_is_leaf: bool = False
    #: New RT parent for every piece root that gained one:
    #: ``(child_port, child_is_leaf, parent_port)``.
    parent_updates: List[Tuple[Port, bool, Port]] = field(default_factory=list)

    def helper_ports(self) -> Set[Port]:
        return {helper.port for helper in self.helpers}

    def link_sources(self) -> List[Tuple[Tuple, NodeId, NodeId]]:
        """The healed-graph link sources the new helpers' child edges imply."""
        sources: List[Tuple[Tuple, NodeId, NodeId]] = []
        for helper in self.helpers:
            for child_port in (helper.left_port, helper.right_port):
                u, v = helper.port.processor, child_port.processor
                if u != v:
                    sources.append((link_source_key(helper.port, child_port), u, v))
        return sources


#: A piece during the merge is a list ``[num_leaves, order, port, is_leaf,
#: height, representative, parent]``, a new helper's with its two pieces
#: appended.  ``order`` is ``port_order_key(representative)``, fixed when the
#: piece is made; ``parent`` is the port of the helper the piece is merged
#: under, written by that merge (``None`` while it is a root).
_merge_order = itemgetter(1)
#: Builds a :class:`MergedHelper` from its fields in order without the named
#: tuple's Python-level ``__new__`` (the leader builds one per new helper).
_new_helper = tuple.__new__


def merge_summaries(victim: NodeId, summaries: Sequence[PieceSummary]) -> MergeOutcome:
    """Run ``ComputeHaft`` on piece descriptors alone (Algorithm A.9).

    This is the leader anchor's *local* computation (local work is free in
    the paper's model): given the primary-root descriptors that reached it,
    produce the complete merge outcome — every new helper with its simulating
    port, children, parent and representative, ready to disseminate as
    :class:`~repro.distributed.messages.HelperAssignment` /
    :class:`~repro.distributed.messages.ParentUpdate` messages.

    The combine replicates :func:`repro.core.reconstruction_tree.compute_haft`
    step for step — same ``(num_leaves, port_order_key(representative))``
    merge order, same equal-size binary-addition phase, same smallest-first
    chain — so identical inputs yield the identical structure.
    """
    if not summaries:
        return MergeOutcome(victim, ())
    pieces = [
        [
            s.num_leaves,
            port_order_key(s.representative),
            s.root_port,
            s.root_is_leaf,
            s.height,
            s.representative,
            None,
        ]
        for s in dict.fromkeys(summaries)  # idempotent under retransmission
    ]
    made: List[list] = []  # the new helpers, in creation order

    def make_helper(a: list, b: list) -> list:
        # The helper is simulated by ``a``'s representative and inherits
        # ``b``'s, so it also inherits ``b``'s merge order.
        port = a[5]
        a[6] = b[6] = port
        merged = [a[0] + b[0], b[1], port, False, 1 + (a[4] if a[4] > b[4] else b[4]), b[5], None, a, b]
        made.append(merged)
        return merged

    # Phase 1 — combine equal-sized complete trees (binary-addition carries),
    # smallest size first: a size's pieces, in merge order, pair up first
    # with second, third with fourth and so on, each pair's helper joins the
    # pieces of twice the size, and an odd one out is left for phase 2.
    # This is the pairing compute_haft's scan over the sorted forest makes.
    by_size: Dict[int, List[list]] = {}
    for piece in pieces:
        by_size.setdefault(piece[0], []).append(piece)
    forest: List[list] = []
    while by_size:
        size = min(by_size)
        group = sorted(by_size.pop(size), key=_merge_order)
        for i in range(1, len(group), 2):
            by_size.setdefault(2 * size, []).append(make_helper(group[i - 1], group[i]))
        if len(group) % 2:
            forest.append(group[-1])
    # Phase 2 — chain distinct sizes smallest-first (larger tree on the left).
    root = forest[0]
    for tree in forest[1:]:
        root = make_helper(tree, root)

    # A leaf and the helper simulated by the same port are *distinct*
    # virtual nodes, so each piece holds its own parent.
    helpers = [
        _new_helper(
            MergedHelper,
            (port, left[2], left[3], right[2], right[3], parent, height, num_leaves, representative),
        )
        for num_leaves, _, port, _, height, representative, parent, left, right in made
    ]
    parent_updates = [(piece[2], piece[3], piece[6]) for piece in pieces if piece[6] is not None]
    return MergeOutcome(victim, tuple(summaries), helpers, root[2], root[3], parent_updates)
