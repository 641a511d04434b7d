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

* :func:`plan_strip` describes one affected RT's strip walk — the
  :class:`~repro.core.reconstruction_tree.RTStrip` of the engine's
  pre-deletion survey, which the engine applies afterwards — as the
  repair's local knowledge: which complete pieces survive (as summaries),
  which helpers are released ("marked red"), and which virtual edges
  break.  Each item is attributed to the processor that knows it locally,
  so the protocol can hand every participant exactly its own pre-failure
  knowledge and nothing more.

* :func:`merge_summaries` replays ``ComputeHaft`` (Algorithm A.9) — the
  binary-addition combine plus the representative mechanism — purely on
  summaries, producing a :class:`MergeOutcome`: the new helper nodes (with
  simulating port, children, parent, representative) and the healed-graph
  link sources they imply.  It builds them from the one merge order,
  :func:`~repro.core.reconstruction_tree.merge_order`, that the engine's
  :func:`~repro.core.reconstruction_tree.compute_haft` builds its helpers
  from, so given the full summary set the two are identical; given a
  *partial* set — messages were dropped — it yields a self-consistent but
  divergent structure, which is what the simulator's reconvergence loop
  detects and repairs.

The centralized engine is retained only as an *oracle*: the equivalence
tests assert that the message-native structure converges to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..core.ports import NodeId, Port, port_order_key
from ..core.reconstruction_tree import RTLeaf, RTNode, RTStrip, merge_order, representative_of
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


def trivial_summary(port: Port) -> PieceSummary:
    """The single-leaf piece a directly-connected neighbour contributes: the
    new leaf of ``port``, ``(neighbour, victim)``."""
    return PieceSummary(
        root_port=port, root_is_leaf=True, num_leaves=1, height=0, representative=port
    )


def summary_of(node: RTNode) -> PieceSummary:
    """Summarize a complete subtree root (reads only O(1) cached counters)."""
    return PieceSummary(
        root_port=node.port,
        root_is_leaf=isinstance(node, RTLeaf),
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


def plan_strip(strip: RTStrip, dead_processor: NodeId, probe_path: Sequence[NodeId]) -> StripPlan:
    """Describe one affected RT's strip walk as the repair's local knowledge.

    ``strip`` is the engine's read-only walk, taken before the deletion
    (:meth:`~repro.core.forgiving_graph.ForgivingGraph.survey`); the engine
    applies the same walk when the oracle runs.  ``probe_path`` is the RT's
    right spine: a piece is reported from its root's spine position, or, off
    the spine, from the position of its depth (deeper pieces need the probe
    to travel further), and every released helper and destroyed edge is
    attributed to the processor that owns it, so the protocol can
    distribute the knowledge.
    """
    plan = StripPlan()
    path_index = {proc: i for i, proc in enumerate(probe_path)}
    last_position = max(len(probe_path) - 1, 0)
    summaries, positions = plan.summaries, plan.spine_positions
    for node, depth in zip(strip.pieces, strip.depths):
        summaries.append(summary_of(node))
        position = path_index.get(node.port.processor)
        positions.append(min(depth, last_position) if position is None else position)
    released = plan.released_by_processor
    for helper in strip.released:
        port = helper.simulated_by
        released.setdefault(port.processor, []).append(port)
    glue = plan.glue_by_processor
    for parent, child in strip.cuts:
        p, c = parent.processor, child.processor
        # Self-projections carry no link; dead-incident links are purged.
        if p != c and p != dead_processor and c != dead_processor:
            glue.setdefault(p, []).append((link_source_key(parent, child), p, c))
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

    The helpers follow :func:`~repro.core.reconstruction_tree.merge_order`,
    the order :func:`repro.core.reconstruction_tree.compute_haft` builds the
    engine's from, so identical inputs yield the identical structure.
    """
    if not summaries:
        return MergeOutcome(victim, ())
    pieces = list(dict.fromkeys(summaries))  # idempotent under retransmission
    # One entry per piece, then one per new helper in creation order.  A
    # leaf and the helper simulated by the same port are *distinct* virtual
    # nodes, so each entry holds its own parent: the port of the helper it
    # is merged under, ``None`` for the root.
    ports = [s.root_port for s in pieces]
    is_leaf = [s.root_is_leaf for s in pieces]
    heights = [s.height for s in pieces]
    sizes = [s.num_leaves for s in pieces]
    representatives = [s.representative for s in pieces]
    pairs = merge_order(sizes, [port_order_key(port) for port in representatives])
    parents: List[Optional[Port]] = [None] * (len(pieces) + len(pairs))
    for left, right in pairs:
        # Simulated by ``left``'s representative, inheriting ``right``'s.
        port = representatives[left]
        parents[left] = parents[right] = port
        ports.append(port)
        is_leaf.append(False)
        heights.append(1 + max(heights[left], heights[right]))
        sizes.append(sizes[left] + sizes[right])
        representatives.append(representatives[right])
    helpers = [
        _new_helper(
            MergedHelper,
            (
                ports[k],
                ports[left],
                is_leaf[left],
                ports[right],
                is_leaf[right],
                parents[k],
                heights[k],
                sizes[k],
                representatives[k],
            ),
        )
        for k, (left, right) in enumerate(pairs, len(pieces))
    ]
    parent_updates = [
        (ports[i], is_leaf[i], parents[i]) for i in range(len(pieces)) if parents[i] is not None
    ]
    return MergeOutcome(victim, tuple(summaries), helpers, ports[-1], is_leaf[-1], parent_updates)
