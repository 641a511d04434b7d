"""Per-processor state and behaviour: Table 1 records plus the reactive repair.

Each processor keeps one :class:`EdgeRecord` per ``G'`` edge it participates
in, in a plain dict keyed by the neighbour's identifier.  The record is a
slotted dataclass with exactly the fields the paper lists in Table 1: the
real node's current endpoint, whether the processor is simulating a helper
node for this edge, the real node's RT parent and representative, plus the
helper node's parent / children / height / children-count / representative.
Its field order is also the checkpoint store's record payload order.
Beside the records a processor holds only its active repair contexts; it
keeps no log of the messages it received (the network's metrics count the
traffic, and an accusation carries its own evidence).

Since the merge went message-native (PR 4) the processor is no longer a
passive recorder: during a repair it *acts* on what it receives.  At repair
start the protocol installs a :class:`RepairContext` — the processor's
pre-failure local knowledge (its position on a probe path, the complete
pieces it can vouch for, the helpers it must mark red, its place in the
``BT_v`` anchor tree) — and from then on every state change is driven by
incoming messages and round timers:

* a :class:`~repro.distributed.messages.Probe` makes it strip its broken
  fragments locally and forward the probe down the spine,
* :class:`~repro.distributed.messages.PrimaryRootReport` descriptors are
  pipelined back towards the anchor, each hop folding in its own pieces,
* anchors batch what arrived into
  :class:`~repro.distributed.messages.PrimaryRootList` messages up ``BT_v``
  when their deadline round passes — with or without the laggards,
* the *leader* anchor (the ``BT_v`` root) runs the merge
  (:func:`repro.distributed.merge.merge_summaries`) on whatever descriptors
  reached it and disseminates the outcome as
  :class:`~repro.distributed.messages.HelperAssignment` /
  :class:`~repro.distributed.messages.ParentUpdate` instructions; late
  descriptors trigger a re-merge under a higher epoch.

The collection of edge records plus the network's sourced links *is* the
distributed representation of the healed structure; processors that missed
messages simply hold stale records until the anti-entropy recovery
(:mod:`repro.distributed.recovery`, PR 5) heals them: on every gossip sweep
the processor derives compact :class:`~repro.distributed.messages.Digest`
messages from its *own* repair context and Table 1 records (probe seen?
pieces vouched for?  assignments applied, with which pointers?), pushes
them along its spine/anchor links, and retransmits exactly what incoming
digests show missing — a predecessor resends the probe an unprobed
successor's digest reveals, the leader re-merges under a higher epoch when
digests surface unreported pieces and re-instructs owners whose record
digests diverge from its outcome.  The test-suite reconstructs the
structure from these records and compares it with the centralized engine —
the engine is an oracle, never a participant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import dataclasses

from ..core.ports import NodeId, Port
from .merge import (
    MergeOutcome,
    PieceSummary,
    helper_assignment,
    helper_retraction,
    link_source_key,
    merge_summaries,
    parent_update,
)
from .messages import (
    MAX_PORTS_PER_REQUEST,
    MAX_ROOTS_PER_MESSAGE,
    DeletionNotice,
    Digest,
    DigestRequest,
    HelperAssignment,
    InsertionNotice,
    Message,
    ParentUpdate,
    PortDigest,
    PrimaryRootList,
    PrimaryRootReport,
    Probe,
)

__all__ = [
    "EdgeRecord",
    "Processor",
    "RepairContext",
    "SpineRole",
]


@dataclass(slots=True)
class EdgeRecord:
    """State kept by processor ``v`` for the ``G'`` edge ``(v, x)`` (Table 1)."""

    #: The other endpoint ``x`` of the edge in ``G'``.
    neighbor: NodeId

    # --- real-node fields ------------------------------------------------
    #: Current endpoint of the edge: ``x`` while ``x`` is alive, otherwise the
    #: port identifying the real node's parent in its RT.
    endpoint: Optional[Port] = None
    #: Whether ``x`` is known to be alive (endpoint is the real node itself).
    neighbor_alive: bool = True
    #: True when this processor currently simulates a helper node for this edge.
    has_helper: bool = False
    #: Port identifying the real node's parent in its RT (None while ``x`` is alive).
    rt_parent: Optional[Port] = None
    #: Representative used while merging; for a real node this is itself.
    representative: Optional[Port] = None

    # --- helper-node fields (meaningful only when ``has_helper``) ---------
    helper_parent: Optional[Port] = None
    helper_left: Optional[Port] = None
    helper_right: Optional[Port] = None
    helper_height: int = 0
    helper_children_count: int = 0
    helper_representative: Optional[Port] = None
    #: The deletion whose repair created this helper (guards a late stale
    #: ``create`` from clobbering a helper another repair installed).
    helper_victim: Optional[NodeId] = None

    def clear_helper(self) -> None:
        """Drop the helper node simulated for this edge (it was 'marked red')."""
        self.has_helper = False
        self.helper_parent = None
        self.helper_left = None
        self.helper_right = None
        self.helper_height = 0
        self.helper_children_count = 0
        self.helper_representative = None
        self.helper_victim = None


#: Per-(class, kind) handler lookup cache: ``receive`` resolves its
#: ``_on_<kind>`` handler through this table instead of a per-message
#: ``getattr`` string build.
_HANDLER_CACHE: Dict[Tuple[type, str], Optional[object]] = {}
_UNRESOLVED = object()


@dataclass
class SpineRole:
    """One processor's position on one affected RT's probe path."""

    rt_index: int
    position: int
    prev_hop: Optional[NodeId] = None
    next_hop: Optional[NodeId] = None
    #: Pieces this processor vouches for on this spine (its local knowledge).
    summaries: Tuple[PieceSummary, ...] = ()
    #: Round by which a probed processor initiates the report wave itself if
    #: nothing arrived from deeper down (lost probe / lost report).
    report_round: int = 0
    probed: bool = False
    probe_forwarded: bool = False
    report_sent: bool = False
    #: Descriptors received from deeper hops, folded into the next report.
    collected: Dict[PieceSummary, None] = field(default_factory=dict)
    #: Pieces the predecessor has acknowledged knowing (recovery gossip):
    #: once everything this hop vouches for is in here, its knowledge has
    #: provably reached the previous hop and its digests go quiet.
    confirmed: Dict[PieceSummary, None] = field(default_factory=dict)


@dataclass
class RepairContext:
    """Everything one processor knows locally about one repair."""

    victim: NodeId
    #: Spine roles, one per affected RT this processor sits on the path of.
    spines: List[SpineRole] = field(default_factory=list)
    #: Helper ports to mark red (a local action once the failure is learnt).
    released: List[Port] = field(default_factory=list)
    #: Link sources destroyed with the broken glue: (key, u, v) triples.
    glue: List[Tuple[Tuple, NodeId, NodeId]] = field(default_factory=list)
    #: Round at which off-spine strip knowledge self-applies (the failure
    #: wave through the broken region is model-level); ``None`` when the
    #: strip is driven by probe receipt only.
    strip_round: Optional[int] = None
    stripped: bool = False

    # --- anchor role ------------------------------------------------------
    is_anchor: bool = False
    bt_parent: Optional[NodeId] = None
    ship_round: Optional[int] = None
    shipped: bool = False
    #: Descriptors gathered at this anchor (own pieces, spine reports, and —
    #: for interior BT_v nodes — children's lists), insertion-ordered.
    gathered: Dict[PieceSummary, None] = field(default_factory=dict)
    #: Gathered pieces the ``BT_v`` parent has acknowledged knowing
    #: (recovery gossip) — the anchor-level twin of ``SpineRole.confirmed``.
    pieces_confirmed: Dict[PieceSummary, None] = field(default_factory=dict)

    # --- leader role ------------------------------------------------------
    is_leader: bool = False
    decide_round: Optional[int] = None
    outcome: Optional[MergeOutcome] = None
    epoch: int = 0
    #: Helper ports ever instructed by this leader during this repair (used
    #: to retract assignments a re-merge superseded).
    instructed: Dict[Port, None] = field(default_factory=dict)
    #: Ports whose record digest matched the current outcome (recovery
    #: gossip); cleared on every re-merge, since a new epoch's instructions
    #: must be re-confirmed.
    confirmed_ports: Dict[Port, None] = field(default_factory=dict)

    # --- byzantine accountability ----------------------------------------
    #: Cross-witness table: the first descriptor seen per piece identity
    #: ``(root_port, root_is_leaf)``, with the message that carried it
    #: (``None`` for pre-failure local knowledge).  Within one repair every
    #: honest descriptor for the same identity is identical (pieces are
    #: disjoint and their content is pre-failure state), so a validly-sealed
    #: newcomer that *contradicts* the witnessed copy proves its author —
    #: the piece's own root processor — lied; the conflicting message pair
    #: is the accusation's evidence.
    witnessed: Dict[Tuple[Port, bool], Tuple[PieceSummary, Optional[Message]]] = field(
        default_factory=dict
    )


class Processor:
    """A network processor: identifier, per-edge records, repair behaviour."""

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        #: One record per ``G'`` edge, keyed by the neighbour's identifier.
        self.edges: Dict[NodeId, EdgeRecord] = {}
        #: Back-reference set by :meth:`Network.add_processor`; lets message
        #: handlers update the sourced link set.  ``None`` for standalone
        #: processors (unit tests), where link effects are skipped.
        self.network = None
        #: Active repair contexts, keyed by the deleted node.
        self.repairs: Dict[NodeId, RepairContext] = {}
        #: Newest dissemination epoch seen per repair (stale-message guard).
        self.repair_epochs: Dict[NodeId, int] = {}

    # ------------------------------------------------------------------ #
    # local knowledge
    # ------------------------------------------------------------------ #
    def ensure_edge(self, neighbor: NodeId) -> EdgeRecord:
        """Create (or return) the edge record for the ``G'`` edge to ``neighbor``.

        Mirrors ``Init(v)`` (Algorithm A.2): the representative starts as the
        processor's own port and every other field is empty.
        """
        record = self.edges.get(neighbor)
        if record is None:
            record = EdgeRecord(neighbor=neighbor, representative=Port(self.node_id, neighbor))
            self.edges[neighbor] = record
        return record

    def port(self, neighbor: NodeId) -> Port:
        """The port this processor owns for the edge to ``neighbor``."""
        return Port(self.node_id, neighbor)

    def helper_ports(self) -> List[Port]:
        """Ports for which this processor currently simulates a helper node."""
        return [Port(self.node_id, nbr) for nbr, rec in self.edges.items() if rec.has_helper]

    def degree_in_edges(self) -> int:
        """Number of ``G'`` edges this processor participates in."""
        return len(self.edges)

    # ------------------------------------------------------------------ #
    # repair lifecycle
    # ------------------------------------------------------------------ #
    def install_repair(self, context: RepairContext) -> None:
        """Hand the processor its pre-failure knowledge for one repair.

        The processor's own pre-failure knowledge seeds the cross-witness
        table: descriptors it can vouch for locally are the first witnesses
        against any later, contradicting claim about the same pieces.
        """
        self.repairs[context.victim] = context
        for role in context.spines:
            for summary in role.summaries:
                context.witnessed.setdefault(
                    (summary.root_port, summary.root_is_leaf), (summary, None)
                )
        for summary in context.gathered:
            context.witnessed.setdefault(
                (summary.root_port, summary.root_is_leaf), (summary, None)
            )

    def uninstall_repair(self, victim: NodeId) -> None:
        self.repairs.pop(victim, None)
        self.repair_epochs.pop(victim, None)

    def apply_strip(self, context: RepairContext) -> None:
        """Mark red / drop glue from local knowledge (free local work).

        Idempotent: clearing a cleared record and discarding an absent link
        source are no-ops, so a retransmitted probe cannot corrupt state.
        """
        context.stripped = True
        for port in context.released:
            record = self.edges.get(port.neighbor)
            if record is not None and record.has_helper and record.helper_victim != context.victim:
                record.clear_helper()
        if self.network is not None:
            for key, u, v in context.glue:
                self.network.remove_link_source(key, u, v)

    # ------------------------------------------------------------------ #
    # round timers
    # ------------------------------------------------------------------ #
    def tick(self, round_index: int) -> List[Message]:
        """Fire deadline-driven actions for the given round."""
        out: List[Message] = []
        for context in self.repairs.values():
            if (
                not context.stripped
                and context.strip_round is not None
                and round_index >= context.strip_round
            ):
                self.apply_strip(context)
            for role in context.spines:
                if (
                    role.probed
                    and not role.report_sent
                    and round_index >= role.report_round
                    and role.prev_hop is not None
                ):
                    out.extend(self._emit_report(context, role))
            if (
                context.is_anchor
                and not context.shipped
                and context.ship_round is not None
                and round_index >= context.ship_round
                and context.bt_parent is not None
            ):
                context.shipped = True
                out.extend(self._emit_list(context, list(context.gathered)))
            if (
                context.is_leader
                and context.outcome is None
                and context.decide_round is not None
                and round_index >= context.decide_round
            ):
                out.extend(self._decide(context))
        return out

    # ------------------------------------------------------------------ #
    # message handling
    # ------------------------------------------------------------------ #
    def receive(self, message: Message) -> List[Message]:
        """Dispatch an incoming message; returns any response messages.

        Structural messages are integrity-checked first (when the
        processor sits in a network): a stale payload seal or a
        descriptor whose content checksum fails proves the *sender* mutated
        an authored payload — the whole message is discarded undispatched
        (containment: a detected lie influences nothing) and the sender is
        accused and quarantined.  Honest messages are valid by construction,
        so this gate can never fire on delivery faults alone.
        """
        # Seal gate ordered cheapest-first: ``sealed`` is a per-class flag
        # (False for the unsealed majority — probes, notices, requests), so
        # most messages pay one attribute check here instead of a frozenset
        # lookup plus two network reads.
        if message.sealed and message.sender != self.node_id:
            network = self.network
            if network is not None:
                flaw = self._verify(message)
                if flaw is not None:
                    network.accuse(
                        accused=message.sender,
                        reporter=self.node_id,
                        reason=flaw,
                        evidence=(message,),
                    )
                    return []
        cls = type(self)
        kind = message.kind
        handler = _HANDLER_CACHE.get((cls, kind), _UNRESOLVED)
        if handler is _UNRESOLVED:
            handler = getattr(cls, f"_on_{kind}", None)
            _HANDLER_CACHE[(cls, kind)] = handler
        if handler is not None:
            return handler(self, message) or []
        return []

    @staticmethod
    def _verify(message: Message) -> Optional[str]:
        """Local integrity check of one sealed message; returns the flaw."""
        if not message.seal_valid():
            return "stale-seal"
        for summary in getattr(message, "roots", ()):
            if not summary.checksum_valid():
                return "descriptor-checksum"
        for summary in getattr(message, "pieces", ()):
            if not summary.checksum_valid():
                return "descriptor-checksum"
        for record in getattr(message, "records", ()):
            if not record.checksum_valid():
                return "record-checksum"
        return None

    # -- repair-flow helpers -----------------------------------------------
    def _emit(self, message: Message, out: List[Message]) -> None:
        """Queue a message, applying self-addressed ones locally for free.

        Messages to *crashed* processors are dropped here: in Figure 1's
        model a processor observes its neighbours' failures, so it never
        wastes a send on a peer it knows to be gone (this is what lets the
        recovery protocol survive a participant crashing mid-recovery).  A
        receiver that never existed is not waived — the message goes out and
        :meth:`Network.send` keeps its fail-fast ``ProtocolError``.
        """
        if message.receiver == self.node_id:
            out.extend(self.receive(message))
            return
        network = self.network
        if (
            network is not None
            and not network.has_processor(message.receiver)
            and network.ever_had_processor(message.receiver)
        ):
            return
        out.append(message)

    def _peer_alive(self, node: NodeId) -> bool:
        """Liveness of a peer, as the model lets neighbours observe it."""
        return self.network is None or self.network.has_processor(node)

    def _emit_report(self, context: RepairContext, role: SpineRole) -> List[Message]:
        """Send this hop's report wave (own pieces + everything collected)."""
        role.report_sent = True
        payload = list(dict.fromkeys([*role.summaries, *role.collected]))
        out: List[Message] = []
        for chunk in _chunks(payload, MAX_ROOTS_PER_MESSAGE) or [()]:
            self._emit(
                PrimaryRootReport(
                    sender=self.node_id,
                    receiver=role.prev_hop,
                    deleted=context.victim,
                    roots=tuple(chunk),
                    rt_index=role.rt_index,
                ),
                out,
            )
        return out

    def _emit_list(self, context: RepairContext, summaries: List[PieceSummary]) -> List[Message]:
        """Ship descriptors up the ``BT_v`` tree (chunked)."""
        out: List[Message] = []
        for chunk in _chunks(summaries, MAX_ROOTS_PER_MESSAGE) or [()]:
            self._emit(
                PrimaryRootList(
                    sender=self.node_id,
                    receiver=context.bt_parent,
                    deleted=context.victim,
                    roots=tuple(chunk),
                ),
                out,
            )
        return out

    def _decide(self, context: RepairContext) -> List[Message]:
        """Leader: merge the gathered descriptors and disseminate the outcome."""
        context.outcome = merge_summaries(context.victim, list(context.gathered))
        return self._disseminate(context)

    def _disseminate(self, context: RepairContext) -> List[Message]:
        """Leader: instruct every owner per the current outcome (one epoch)."""
        outcome = context.outcome
        victim = context.victim
        epoch = context.epoch
        out: List[Message] = []
        current_ports = outcome.helper_ports()
        # Retract helpers instructed under a superseded (partial) outcome.
        for port in list(context.instructed):
            if port not in current_ports:
                self._emit(helper_retraction(self.node_id, victim, port, epoch), out)
        for helper in outcome.helpers:
            context.instructed[helper.port] = None
            self._emit(helper_assignment(self.node_id, victim, helper, epoch), out)
        for child_port, child_is_leaf, parent_port in outcome.parent_updates:
            self._emit(
                parent_update(self.node_id, victim, child_port, child_is_leaf, parent_port, epoch),
                out,
            )
        return out

    def _remerge(self, context: RepairContext) -> List[Message]:
        """Leader: late descriptors arrived after a decision — re-merge."""
        known = set(context.outcome.summaries)
        if known == set(context.gathered):
            return []
        context.epoch += 1
        context.outcome = merge_summaries(context.victim, list(context.gathered))
        # A new epoch's instructions must be confirmed afresh.
        context.confirmed_ports.clear()
        return self._disseminate(context)

    # -- handlers ----------------------------------------------------------
    def _on_InsertionNotice(self, message: InsertionNotice) -> None:
        self.ensure_edge(message.inserted)

    def _on_DeletionNotice(self, message: DeletionNotice) -> None:
        record = self.edges.get(message.deleted)
        if record is not None:
            record.neighbor_alive = False
            record.endpoint = None

    def _on_AnchorLink(self, message) -> None:
        # BT_v formation is topological (the scaffold records the link); the
        # processor only needs to remember it took part, which the message
        # log already does.
        return

    def _on_Probe(self, message: Probe) -> List[Message]:
        context = self.repairs.get(message.deleted)
        if context is None:
            return []
        if not context.stripped:
            self.apply_strip(context)
        out: List[Message] = []
        for role in context.spines:
            if role.rt_index != message.rt_index:
                continue
            role.probed = True
            if role.next_hop is not None and not role.probe_forwarded:
                role.probe_forwarded = True
                self._emit(
                    Probe(
                        sender=self.node_id,
                        receiver=role.next_hop,
                        deleted=context.victim,
                        hops=message.hops + 1,
                        rt_index=role.rt_index,
                    ),
                    out,
                )
            elif role.next_hop is None and not role.report_sent and role.prev_hop is not None:
                # End of the spine: start the report wave immediately.
                out.extend(self._emit_report(context, role))
        return out

    def _on_PrimaryRootReport(self, message: PrimaryRootReport) -> List[Message]:
        context = self.repairs.get(message.deleted)
        if context is None:
            return []
        return self._fold_pieces(context, message.rt_index, list(message.roots), message)

    def _admit_pieces(
        self,
        context: RepairContext,
        summaries: List[PieceSummary],
        message: Optional[Message],
    ) -> List[PieceSummary]:
        """Cross-witness validation: reject descriptors contradicting a witness.

        Every incoming descriptor (already seal/checksum-clean) is compared
        against the first witnessed copy of the same piece identity.  Honest
        copies are identical — the content is pre-failure state — so a
        contradiction proves the piece's root processor *authored* a lie
        (a validly-sealed forgery); it is accused with the witnessed and
        incoming carrier messages as the evidence pair, and the forged
        descriptor is rejected (first witness wins), containing the lie at
        this hop.
        """
        network = self.network
        if network is None:
            for summary in summaries:
                context.witnessed.setdefault(
                    (summary.root_port, summary.root_is_leaf), (summary, message)
                )
            return summaries
        admitted: List[PieceSummary] = []
        for summary in summaries:
            key = (summary.root_port, summary.root_is_leaf)
            prior = context.witnessed.get(key)
            if prior is None:
                context.witnessed[key] = (summary, message)
                admitted.append(summary)
            elif prior[0] == summary:
                admitted.append(summary)
            else:
                evidence = tuple(
                    m for m in (prior[1], message) if m is not None
                )
                network.accuse(
                    accused=summary.root_port.processor,
                    reporter=self.node_id,
                    reason="conflicting-descriptor",
                    evidence=evidence,
                )
        return admitted

    def _fold_pieces(
        self,
        context: RepairContext,
        rt_index: Optional[int],
        summaries: List[PieceSummary],
        message: Optional[Message] = None,
    ) -> List[Message]:
        """Fold piece descriptors that arrived on a spine (report or digest).

        At the anchor position (or with no matching spine role) descriptors
        join the gathered set; mid-spine they join the hop's collected set
        and fresh ones are relayed towards the anchor like a late report
        wave.
        """
        summaries = self._admit_pieces(context, summaries, message)
        role = (
            next((r for r in context.spines if r.rt_index == rt_index), None)
            if rt_index is not None
            else None
        )
        if role is None or role.position == 0 or role.prev_hop is None:
            # Anchor position (or no spine role): fold into the gathered set.
            return self._absorb(context, summaries, message, admitted=True)
        fresh = [s for s in summaries if s not in role.collected]
        for summary in fresh:
            role.collected[summary] = None
        if not role.report_sent:
            return self._emit_report(context, role)
        # Late wave: relay the fresh descriptors without re-batching.
        out: List[Message] = []
        for chunk in _chunks(fresh, MAX_ROOTS_PER_MESSAGE):
            self._emit(
                PrimaryRootReport(
                    sender=self.node_id,
                    receiver=role.prev_hop,
                    deleted=context.victim,
                    roots=tuple(chunk),
                    rt_index=role.rt_index,
                ),
                out,
            )
        return out

    def _on_PrimaryRootList(self, message: PrimaryRootList) -> List[Message]:
        context = self.repairs.get(message.deleted)
        if context is None:
            return []
        return self._absorb(context, list(message.roots), message)

    def _absorb(
        self,
        context: RepairContext,
        summaries: List[PieceSummary],
        message: Optional[Message] = None,
        admitted: bool = False,
    ) -> List[Message]:
        if not admitted:
            summaries = self._admit_pieces(context, summaries, message)
        fresh = [s for s in summaries if s not in context.gathered]
        for summary in fresh:
            context.gathered[summary] = None
        if not fresh:
            return []
        if context.is_leader:
            if context.outcome is not None:
                return self._remerge(context)
            return []
        if context.shipped and context.bt_parent is not None:
            return self._emit_list(context, fresh)
        return []

    def _on_ParentUpdate(self, message: ParentUpdate) -> None:
        port = message.child_port
        if port is None or port.processor != self.node_id:
            return
        if message.deleted is not None:
            newest = self.repair_epochs.get(message.deleted, -1)
            if message.epoch < newest:
                return  # stale instruction from a superseded merge epoch
            self.repair_epochs[message.deleted] = max(newest, message.epoch)
        record = self.ensure_edge(port.neighbor)
        if message.child_is_helper:
            record.helper_parent = message.parent_port
        else:
            record.rt_parent = message.parent_port
            record.endpoint = message.parent_port
            record.neighbor_alive = False

    def _on_HelperAssignment(self, message: HelperAssignment) -> None:
        port = message.helper_port
        if port is None or port.processor != self.node_id:
            return
        victim = message.deleted
        if victim is not None:
            newest = self.repair_epochs.get(victim, -1)
            if message.epoch < newest:
                return  # stale instruction from a superseded merge epoch
            self.repair_epochs[victim] = max(newest, message.epoch)
        record = self.ensure_edge(port.neighbor)
        if not message.create:
            if record.has_helper and (victim is None or record.helper_victim == victim):
                self._drop_helper_links(record, port)
                record.clear_helper()
            return
        if record.has_helper and record.helper_victim != victim:
            # Another repair's helper lives here; a (necessarily partial)
            # merge picked a busy port.  Refuse — the full merge never does.
            return
        if record.has_helper:
            self._drop_helper_links(record, port)
        record.has_helper = True
        record.helper_victim = victim
        record.helper_parent = message.parent_port
        record.helper_left = message.left_port
        record.helper_right = message.right_port
        record.helper_height = message.height
        record.helper_children_count = 2
        record.helper_representative = message.representative_port
        if self.network is not None:
            for child in (message.left_port, message.right_port):
                if child is not None:
                    self.network.add_link_source(
                        link_source_key(port, child), self.node_id, child.processor
                    )

    def _drop_helper_links(self, record: EdgeRecord, port: Port) -> None:
        """Remove the link sources a previously applied assignment created."""
        if self.network is None:
            return
        for child in (record.helper_left, record.helper_right):
            if child is not None:
                self.network.remove_link_source(
                    link_source_key(port, child), self.node_id, child.processor
                )

    # ------------------------------------------------------------------ #
    # anti-entropy recovery (gossip digests)
    # ------------------------------------------------------------------ #
    def recovery_tick(self, victim: NodeId) -> List[Message]:
        """Emit this processor's digests for one gossip sweep of one repair.

        Everything emitted here derives from *local* knowledge only — the
        repair context this processor was handed at repair start (its own
        spine roles, its own gathered pieces, the leader's own outcome) and
        its own Table 1 records.  Three flows per sweep:

        * one spine digest per spine role towards the predecessor (probe
          status + the vouched-for/collected pieces the predecessor has not
          acknowledged yet),
        * one anchor digest up the ``BT_v`` tree (the gathered descriptors
          the parent has not acknowledged yet),
        * the leader pulls :class:`~repro.distributed.messages.PortDigest`
          record summaries for the not-yet-confirmed ports of the owners
          its outcome instructs.

        Receivers acknowledge every digest chunk (see :meth:`_on_Digest`),
        so confirmed knowledge drops out of later sweeps: at the fixed point
        the protocol is *silent* — a sweep emits nothing at all.
        """
        context = self.repairs.get(victim)
        if context is None:
            return []
        out: List[Message] = []
        for role in context.spines:
            if role.prev_hop is None:
                continue
            pending = [
                s
                for s in dict.fromkeys([*role.summaries, *role.collected])
                if s not in role.confirmed
            ]
            if role.probed and not pending:
                continue
            for chunk in _chunks(pending, MAX_ROOTS_PER_MESSAGE) or [()]:
                self._emit(
                    Digest(
                        sender=self.node_id,
                        receiver=role.prev_hop,
                        deleted=victim,
                        rt_index=role.rt_index,
                        probed=role.probed,
                        stripped=context.stripped,
                        pieces=tuple(chunk),
                    ),
                    out,
                )
        if context.is_anchor and context.bt_parent is not None:
            pending = [s for s in context.gathered if s not in context.pieces_confirmed]
            for chunk in _chunks(pending, MAX_ROOTS_PER_MESSAGE):
                self._emit(
                    Digest(
                        sender=self.node_id,
                        receiver=context.bt_parent,
                        deleted=victim,
                        stripped=context.stripped,
                        pieces=tuple(chunk),
                    ),
                    out,
                )
        if context.is_leader and context.outcome is not None:
            targets: Dict[NodeId, Dict[Port, None]] = {}
            for port in self._leader_target_ports(context):
                if port not in context.confirmed_ports:
                    targets.setdefault(port.processor, {})[port] = None
            for owner, ports in targets.items():
                for chunk in _chunks(list(ports), MAX_PORTS_PER_REQUEST):
                    self._emit(
                        DigestRequest(
                            sender=self.node_id,
                            receiver=owner,
                            deleted=victim,
                            ports=tuple(chunk),
                        ),
                        out,
                    )
        network = self.network
        if network is not None:
            schedule = network.fault_schedule
            if (
                schedule is not None
                and schedule.has_byzantine
                and schedule.is_byzantine(self.node_id)
            ):
                out.extend(self._forge_digest(context, schedule))
        return out

    def _forge_digest(self, context: RepairContext, schedule) -> List[Message]:
        """Byzantine-only: author a validly-sealed lie about an *own* piece.

        The strongest lie the model allows — the processor constructs a
        fresh digest whose forged descriptor carries its own valid seal and
        checksum (the liar authored it, so the tags match), claiming a
        different shape for a piece the processor itself roots.  The target
        is chosen among pieces the receiver has already acknowledged
        (``confirmed``), so the receiver provably witnessed the true copy:
        the forgery is guaranteed to contradict a witness on delivery and
        the accusation lands on the right processor — exactly the
        cross-witness guarantee ``tests/test_distributed_byzantine.py``
        checks.
        """
        policy = schedule.policy_for_processor(self.node_id)
        if not schedule.byz_roll(policy.forge):
            return []
        candidates: List[Tuple[NodeId, Optional[int], PieceSummary]] = []
        for role in context.spines:
            if role.prev_hop is None:
                continue
            for summary in role.summaries:
                if summary in role.confirmed and summary.root_port.processor == self.node_id:
                    candidates.append((role.prev_hop, role.rt_index, summary))
        if context.is_anchor and context.bt_parent is not None:
            for summary in context.gathered:
                if (
                    summary in context.pieces_confirmed
                    and summary.root_port.processor == self.node_id
                ):
                    candidates.append((context.bt_parent, None, summary))
        if not candidates:
            return []
        receiver, rt_index, original = candidates[
            int(schedule._byz_rng.integers(len(candidates)))
        ]
        # ``replace`` re-runs ``__post_init__``: the forged descriptor gets a
        # *valid* checksum over the lie, and the fresh message a valid seal.
        forged = dataclasses.replace(original, num_leaves=original.num_leaves + 1)
        message = Digest(
            sender=self.node_id,
            receiver=receiver,
            deleted=context.victim,
            rt_index=rt_index,
            probed=True,
            stripped=True,
            pieces=(forged,),
        )
        message.byz_origin = self.node_id  # oracle-side provenance tag
        out: List[Message] = []
        self._emit(message, out)
        return out

    @staticmethod
    def _leader_target_ports(context: RepairContext) -> List[Port]:
        """Every port the leader's own outcome obliges it to confirm."""
        ports: Dict[Port, None] = {}
        for helper in context.outcome.helpers:
            ports[helper.port] = None
        for child_port, _child_is_leaf, _parent in context.outcome.parent_updates:
            ports[child_port] = None
        for port in context.instructed:
            ports[port] = None
        return list(ports)

    def recovery_satisfied(self, victim: NodeId) -> bool:
        """True when this processor's recovery obligations are all confirmed.

        Computed from local state only: probe seen on every spine role,
        strip applied, every vouched-for piece acknowledged by the previous
        hop, every gathered piece acknowledged by the ``BT_v`` parent, and —
        for the leader — a record digest confirming every instructed port.
        Obligations towards crashed peers are waived (their knowledge died
        with them; Figure 1's model lets neighbours observe the crash).
        """
        context = self.repairs.get(victim)
        if context is None:
            return True
        if not context.stripped and (context.released or context.glue):
            # The strip arrives as a Probe resent by a live spine
            # predecessor reading this hop's digest; with every predecessor
            # dead (crashed or quarantined) it can never arrive — waived
            # like the per-role obligations below.
            if any(
                role.prev_hop is not None and self._peer_alive(role.prev_hop)
                for role in context.spines
            ):
                return False
        for role in context.spines:
            if role.prev_hop is None or not self._peer_alive(role.prev_hop):
                continue
            if not role.probed:
                return False
            if any(
                s not in role.confirmed for s in (*role.summaries, *role.collected)
            ):
                return False
        if (
            context.is_anchor
            and context.bt_parent is not None
            and self._peer_alive(context.bt_parent)
            and any(s not in context.pieces_confirmed for s in context.gathered)
        ):
            return False
        if context.is_leader:
            if context.outcome is None:
                return False
            if set(context.outcome.summaries) != set(context.gathered):
                return False
            for port in self._leader_target_ports(context):
                if port not in context.confirmed_ports and self._peer_alive(
                    port.processor
                ):
                    return False
        return True

    def _on_Digest(self, message: Digest) -> List[Message]:
        out: List[Message] = []
        context = self.repairs.get(message.deleted)
        if message.records:
            if context is not None and context.is_leader and context.outcome is not None:
                out.extend(self._diff_record_digests(context, message.records))
            return out
        if context is None:
            return out
        if message.ack:
            # The receiver of one of our digests echoed the chunk back:
            # that knowledge has provably arrived — stop re-offering it.
            if message.rt_index is not None:
                role = next(
                    (
                        r
                        for r in context.spines
                        if r.rt_index == message.rt_index and r.prev_hop == message.sender
                    ),
                    None,
                )
                if role is not None:
                    for summary in message.pieces:
                        role.confirmed[summary] = None
            elif message.sender == context.bt_parent:
                for summary in message.pieces:
                    context.pieces_confirmed[summary] = None
            return out
        if message.rt_index is not None and not (message.probed and message.stripped):
            role = next(
                (r for r in context.spines if r.rt_index == message.rt_index), None
            )
            if role is not None and role.next_hop == message.sender:
                # The successor never saw the probe (or saw it without its
                # strip applying) — resending it is this hop's local duty
                # (the original travelled through here too), and probe
                # receipt is idempotent: it strips and nothing else twice.
                self._emit(
                    Probe(
                        sender=self.node_id,
                        receiver=message.sender,
                        deleted=context.victim,
                        hops=role.position + 1,
                        rt_index=message.rt_index,
                    ),
                    out,
                )
        if message.pieces:
            out.extend(
                self._fold_pieces(context, message.rt_index, list(message.pieces), message)
            )
        if message.pieces or message.rt_index is not None:
            # Acknowledge the chunk so the sender's future digests shrink;
            # an unprobed empty digest is acked too (the resent probe may
            # yet be lost — the ack only confirms the *pieces* arrived).
            self._emit(
                Digest(
                    sender=self.node_id,
                    receiver=message.sender,
                    deleted=message.deleted,
                    rt_index=message.rt_index,
                    ack=True,
                    pieces=message.pieces,
                ),
                out,
            )
        return out

    def _on_DigestRequest(self, message: DigestRequest) -> List[Message]:
        # One reply per request: the leader already chunks its requests at
        # MAX_PORTS_PER_REQUEST, so the answering record set fits one digest.
        entries = [
            self._port_digest(port, message.deleted)
            for port in message.ports
            if port.processor == self.node_id
        ]
        out: List[Message] = []
        if entries:
            self._emit(
                Digest(
                    sender=self.node_id,
                    receiver=message.sender,
                    deleted=message.deleted,
                    records=tuple(entries),
                ),
                out,
            )
        return out

    def _port_digest(self, port: Port, victim: NodeId) -> PortDigest:
        """Summarize one of this processor's own Table 1 records for a digest."""
        record = self.edges.get(port.neighbor)
        if record is None:
            return PortDigest(port=port, links_ok=False)
        helper_for_victim = record.has_helper and record.helper_victim == victim
        links_ok = True
        if helper_for_victim and self.network is not None:
            for child in (record.helper_left, record.helper_right):
                if (
                    child is not None
                    and child.processor != self.node_id
                    # A link to a crashed (or quarantined) endpoint can never
                    # be re-established; waive it like recovery_satisfied
                    # waives dead peers, or the leader resends forever.
                    and self._peer_alive(child.processor)
                    and not self.network.has_link_source(
                        link_source_key(port, child), self.node_id, child.processor
                    )
                ):
                    links_ok = False
        busy_with = None
        if record.has_helper and record.helper_victim != victim:
            # Foreign helper on the requested port.  Only report it busy
            # when this repair can no longer release it — the strip already
            # ran (releases applied, helper survived) or the strip will
            # never touch this port.  While its release is still pending
            # the busy state is transient and the leader must keep
            # re-instructing, or a slow strip under delivery faults would
            # wrongly waive a helper of the *full* merge outcome.
            context = self.repairs.get(victim)
            pending_release = (
                context is not None
                and not context.stripped
                and port in context.released
            )
            if not pending_release:
                busy_with = record.helper_victim
        return PortDigest(
            port=port,
            helper_for_victim=helper_for_victim,
            helper_left=record.helper_left,
            helper_right=record.helper_right,
            helper_parent=record.helper_parent,
            rt_parent=record.rt_parent,
            links_ok=links_ok,
            busy_with=busy_with,
        )

    def _diff_record_digests(
        self, context: RepairContext, records: Tuple[PortDigest, ...]
    ) -> List[Message]:
        """Leader: diff pulled record digests against the current outcome.

        Retransmits exactly what a digest shows missing or stale: an
        assignment whose pointers (or link sources) diverge is re-sent under
        the current epoch, a helper a re-merge superseded is retracted, and
        a parent pointer that never applied gets its update again.  A port
        whose record matches the outcome on every count joins
        ``confirmed_ports`` and drops out of future pulls.
        """
        outcome = context.outcome
        epoch = context.epoch
        victim = context.victim
        out: List[Message] = []
        helpers_by_port = {helper.port: helper for helper in outcome.helpers}
        parents_by_child = {
            (child, child_is_leaf): parent
            for child, child_is_leaf, parent in outcome.parent_updates
        }
        for record in records:
            port_ok = True
            helper = helpers_by_port.get(record.port)
            helper_waived = helper is not None and record.busy_with is not None
            if helper_waived:
                # The port already simulates a helper for *another* repair;
                # its owner refuses the assignment (see _on_HelperAssignment)
                # and no retransmission can change that.  Only a partial
                # merge picks a busy port — pieces permanently missing
                # because their vouchers crashed or were quarantined — so
                # waive the instruction like the other dead-peer
                # obligations: re-instructing would livelock the recovery,
                # and a re-merge re-checks every port from scratch.
                helper = None
            if helper is not None:
                applied = (
                    record.helper_for_victim
                    and record.helper_left == helper.left_port
                    and record.helper_right == helper.right_port
                    and record.helper_parent == helper.parent_port
                    and record.links_ok
                )
                if not applied:
                    port_ok = False
                    context.instructed[helper.port] = None
                    self._emit(helper_assignment(self.node_id, victim, helper, epoch), out)
            elif record.helper_for_victim and record.port in context.instructed:
                # Applied under a superseded (partial) outcome: retract it.
                port_ok = False
                self._emit(helper_retraction(self.node_id, victim, record.port, epoch), out)
            for child_is_leaf in (True, False):
                parent = parents_by_child.get((record.port, child_is_leaf))
                if parent is None:
                    continue
                if not child_is_leaf and helper_waived:
                    # The helper this update would re-parent was waived
                    # above; sending it would clobber the foreign helper's
                    # parent pointer instead.  (A helper-side update *not*
                    # paired with a waived helper targets the foreign
                    # helper itself as a re-parented piece root — that one
                    # still flows.)
                    continue
                actual = record.rt_parent if child_is_leaf else record.helper_parent
                if actual != parent:
                    port_ok = False
                    self._emit(
                        parent_update(
                            self.node_id, victim, record.port, child_is_leaf, parent, epoch
                        ),
                        out,
                    )
            if port_ok:
                context.confirmed_ports[record.port] = None
            else:
                context.confirmed_ports.pop(record.port, None)
        return out

    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Processor({self.node_id!r}, edges={len(self.edges)})"


def _chunks(items: List, size: int) -> List[List]:
    return [items[i : i + size] for i in range(0, len(items), size)]
