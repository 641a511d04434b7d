"""Synchronous round-based message-passing network.

This is the substrate replacing the paper's physical peer-to-peer network
(documented substitution in DESIGN.md): processors are Python objects, links
are entries of an adjacency structure, and time advances in synchronous
rounds — every message sent in round ``r`` is delivered at the start of round
``r + 1``, matching the paper's cost model where a message takes at most one
time unit to traverse an edge and local computation is free.

The topology is one map: processor -> {linked processor: that link's
source keys, as one tuple}.  Both endpoints hold the same tuple object and
every write replaces it on both sides, so a link and its sources cannot
disagree.  Every link has a source: the network makes a link only where
one is added (:meth:`Network.add_link_source`,
:meth:`Network.replace_link_sources`).  Writing a source and
:meth:`Network.are_linked` are O(1), neighbour iteration and
:meth:`Network.remove_processor` O(deg) — no operation on the repair path
ever scans the full link set.  The network enforces that
messages only travel along existing links (except while a repair is open,
see below), and keeps the counters that Lemma 4 bounds: run-wide totals, and
per repair a :class:`~repro.distributed.metrics.MetricsWindow` (opened with
``metrics.begin_epoch_window(victim)``, per-node counts included) that each
message's ``deleted`` epoch tag charges it to, so a cost report is
assembled from O(repair) state instead of full counter snapshots.

There is one message path: a handler constructs a message, :meth:`send`
checks the link, applies any byzantine corruption and counts it with one
:meth:`~repro.distributed.metrics.NetworkMetrics.record_message` call, and
:meth:`deliver_round` hands it to its receiver in the next round.

Two layers sit on top of the raw links since the merge went
message-native (PR 4):

*Sourced links.*  A healed-graph link exists because one or more *sources*
project onto it: the surviving real edge, and any number of RT virtual
edges between the same two processors.  :meth:`add_link_source` /
:meth:`remove_link_source` maintain each link's source keys — the
distributed twin of the engine's edge-multiplicity counting — and the link
itself appears/disappears as its sources become (non-)empty.  Source
updates are driven by received protocol messages (helper assignments) and
local strip knowledge, *not* by the reference engine.  Keys (instead of
bare counters) make the bookkeeping idempotent, so retransmitted messages
cannot corrupt the topology.  A key appears at most once per link, and
nearly every link has exactly one, so an immutable tuple holds them in a
fraction of a set's memory.  A link holds its own real edge as
:data:`REAL_EDGE`, one shared marker, so every link sourced by its real
edge alone holds the same one-key tuple; the marker is written out as
:func:`~repro.distributed.merge.real_source_key` wherever keys leave the
network (:meth:`Network.link_sources`, :meth:`Network.export_link_sources`,
:meth:`Network.changed_links`) and read back from it by
:meth:`Network.replace_link_sources`.

*Scaffolding.*  A repair talks over temporary edges of its own (the
``BT_v`` tree, probe hops, merge wiring), which Algorithm A.3 adds for the
repair and deletes once it is over.  The network holds them as a
permission, not as links: while a repair is open (:meth:`begin_scaffold`
until :meth:`end_scaffold`), :meth:`send` lets any two live processors
talk, and writes nothing into the link table.  So at every moment the
table holds exactly the sourced links, and a link whose last source goes
is removed at once.

Faults: an optional :class:`~repro.distributed.faults.FaultSchedule` is
consulted at delivery time — messages can be dropped, delayed whole rounds,
or delivered in shuffled order.  Sending is always accounted (the sender
paid for the message); what faults change is whether and when the receiver
learns anything.

Byzantine accountability (PR 6): the schedule's byzantine axis corrupts a
lying sender's payloads as they enter :meth:`send` (per copy — equivocation
for free), tagging each lie's oracle-side origin so the
:class:`~repro.distributed.accountability.InjectionLog` can score detection.
Receivers verify seals/checksums in :meth:`Processor.receive` and call
:meth:`Network.accuse`, which appends the evidence to the
:class:`~repro.distributed.accountability.AccountabilityTranscript` and
quarantines the accused — its processor and links are removed exactly like
a crashed node, so the existing recovery machinery (dead-peer waivers,
digest retransmission) heals around it.

Checkpoint marks: once the healer service's checkpoint owner calls
:meth:`Network.start_marks`, every write of a Table 1 record, of a link's
sources, or a processor's removal is noted in :attr:`Network.marks`
(a :class:`CheckpointMarks`), so a checkpoint rewrites exactly those rows.
A link's first write since the last checkpoint also records the tuple it
replaced, which is free since tuples are immutable, so a checkpoint can
leave alone a link whose sources ended where they were
(:meth:`Network.changed_links`).  Until then nothing is recorded: an attack
run keeps no marks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.errors import ProtocolError, UnknownNodeError
from ..core.ports import NodeId, node_order_key, sorted_nodes
from .accountability import AccountabilityTranscript, InjectionLog
from .faults import FaultSchedule
from .merge import real_source_key
from .messages import Message, words_to_bits
from .metrics import NetworkMetrics
from .processor import Processor

__all__ = ["CheckpointMarks", "Network", "REAL_EDGE"]

#: Read-only stand-in for the link map of a node without a processor.
_NO_LINKS = MappingProxyType({})


class _RealEdge:
    """The type of :data:`REAL_EDGE`; copies and unpickling give the one
    instance back, so ``is`` finds it in any link's keys."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "REAL_EDGE"

    def __reduce__(self) -> str:
        return "REAL_EDGE"


#: The source key a link holds for its own surviving real ``G'`` edge, in
#: place of ``real_source_key(u, v)``, which it stands for.
REAL_EDGE = _RealEdge()
#: The keys of a link sourced by its real edge alone, shared by all of them.
_REAL_ONLY = (REAL_EDGE,)


def _exported(keys: Tuple, u: NodeId, v: NodeId) -> Tuple:
    """Link ``(u, v)``'s ``keys`` as they leave the network: its real-edge
    marker written out as ``real_source_key(u, v)``."""
    if REAL_EDGE not in keys:
        return keys
    return tuple(real_source_key(u, v) if key is REAL_EDGE else key for key in keys)


@dataclass(slots=True)
class CheckpointMarks:
    """What changed since the checkpoint store last wrote its image.

    The network and its processors add to it wherever they write that
    state; the store drains it once a checkpoint has committed.  Every write
    marks, whether or not it changes the value.
    """

    #: Each Table 1 record written, as ``(processor, neighbor)``, in the
    #: order of its first write: records created since the last checkpoint
    #: are listed in creation order, the order their processor holds them.
    records: Dict[Tuple[NodeId, NodeId], None] = field(default_factory=dict)
    #: Each link whose sources were written, as the ``(u, v)`` endpoint pair
    #: its first write named (a later write naming ``(v, u)`` finds it),
    #: mapped to its source-key tuple as of that first write since the last
    #: checkpoint (the tuple that write replaced, ``()`` if it had none): the
    #: value the stored image holds, so a link whose sources end equal to it
    #: needs no row rewritten.
    links: Dict[Tuple[NodeId, NodeId], Tuple] = field(default_factory=dict)
    #: Each processor removed.
    removed: Set[NodeId] = field(default_factory=set)

    def clear(self) -> None:
        self.records.clear()
        self.links.clear()
        self.removed.clear()


class Network:
    """A synchronous message-passing network of :class:`Processor` objects."""

    def __init__(self, fault_schedule: Optional[FaultSchedule] = None) -> None:
        self.processors: Dict[NodeId, Processor] = {}
        #: Processor -> {linked processor: the link's source keys} (an empty
        #: dict while isolated).  The keys are one tuple, shared by both
        #: endpoints and replaced on every write (never mutated in place).
        self._links: Dict[NodeId, Dict[NodeId, Tuple]] = {}
        self._outbox: List[Message] = []
        #: Messages a fault delayed: (deliver_at_round, message).
        self._delayed: List[Tuple[int, Message]] = []
        self._round = 0
        self.metrics = NetworkMetrics()
        #: Optional fault injection applied at delivery time.
        self.fault_schedule = fault_schedule
        #: True while a repair is open: any two live processors may talk.
        self._scaffold_open = False
        #: Number of processors ever added (message sizing's ``n``).  Counted
        #: per addition, so removals never shrink it; the distributed healer
        #: cross-checks it against the engine's ``nodes_ever``.
        self.n_ever = 0
        #: Identifiers that have ever had a processor (see
        #: :meth:`ever_had_processor`).
        self._ever_ids: Set[NodeId] = set()
        #: Cached identifier word size ``words_to_bits(1, n_ever)``:
        #: recomputed once per processor addition instead of once per message.
        self._word_bits = 1
        #: Protocol-side accusation ledger.
        self.transcript = AccountabilityTranscript()
        #: Oracle-side ground truth of injected lies (never read by protocol
        #: code; tests and metrics score the transcript against it).
        self.injection_log = InjectionLog()
        #: Processors removed by :meth:`quarantine` (alive in the model's
        #: graph, cut off from the network — the containment action).
        self.quarantined: Set[NodeId] = set()
        #: The checkpoint marks, ``None`` until :meth:`start_marks`: only the
        #: service's checkpoint owner drains them, so nothing else keeps any.
        self.marks: Optional[CheckpointMarks] = None
        #: Per repair (keyed by its victim), the processors outside its
        #: participants that hold its dissemination epoch because it
        #: instructed them (``Processor.repair_epochs``); whoever retires
        #: the repair pops its entry and drops the epoch there too.
        self.epoch_holders: Dict[NodeId, List[NodeId]] = {}

    def start_marks(self) -> CheckpointMarks:
        """Record checkpoint marks from now on, dropping any recorded so far.

        The checkpoint owner calls this where the network equals its stored
        image (after a genesis bootstrap, or a restore), so the marks cover
        every change since.
        """
        self.marks = CheckpointMarks()
        return self.marks

    def _mark_link(self, u: NodeId, v: NodeId, keys: Tuple) -> None:
        """Mark link ``(u, v)``, whose sources are ``keys`` before this write."""
        if self.marks is not None:
            links = self.marks.links
            if (v, u) not in links:
                links.setdefault((u, v), keys)

    def changed_links(self) -> Iterator[Tuple[NodeId, NodeId, Tuple]]:
        """Each marked link whose sources differ from those its mark recorded,
        as ``(u, v, keys)``: its source keys as they leave the network, ``()``
        when it has none left.

        A link holds each key once, so the two tuples are compared as
        multisets, and only a changed link's keys are written out.
        """
        for (u, v), before in self.marks.links.items():
            keys = self._links.get(u, _NO_LINKS).get(v, ())
            if keys is before or (
                len(keys) == len(before) and all(key in before for key in keys)
            ):
                continue
            yield u, v, _exported(keys, u, v)

    def _set_keys(self, u: NodeId, v: NodeId, keys: Tuple) -> None:
        """Give link ``(u, v)`` between two live processors the tuple ``keys``
        on both sides, creating the link if it is absent."""
        self._links[u][v] = self._links[v][u] = keys

    # ------------------------------------------------------------------ #
    # topology management
    # ------------------------------------------------------------------ #
    def add_processor(self, node: NodeId) -> Processor:
        """Create (or return) the processor with identifier ``node``."""
        processor = self.processors.get(node)
        if processor is None:
            processor = Processor(node)
            processor.network = self
            self.processors[node] = processor
            self._links[node] = {}
            self._ever_ids.add(node)
            self.n_ever += 1
            self._word_bits = words_to_bits(1, self.n_ever)
        return processor

    def load_genesis(
        self, nodes: Iterable[NodeId], edges: Iterable[Tuple[NodeId, NodeId]]
    ) -> None:
        """Create ``G_0``'s processors and links on this empty network, in one pass.

        Figure 1's pre-processing: each endpoint of a ``G_0`` edge runs
        ``Init`` locally, so no message is sent.  Holds what
        :meth:`add_processor` per node, then per edge
        ``add_link_source(real_source_key(u, v), u, v)`` and both endpoints'
        :meth:`Processor.ensure_edge` would, in the same order, but builds
        neither a record nor a key: each link holds the one shared
        real-edge-only tuple, and each processor holds ``None`` per record
        (``Init``'s), in edge order.  ``nodes`` must be distinct, and
        ``edges`` distinct pairs of them with no self-loop, as the engine's
        load or a stored genesis graph gives them.
        """
        if self.processors:
            raise ProtocolError("load_genesis needs a network without processors")
        processors, links = self.processors, self._links
        for node in nodes:
            processor = Processor(node)
            processor.network = self
            processors[node] = processor
            links[node] = {}
        # An iterator, not the dict: the set then grows one add at a time,
        # as add_processor grows it, and iterates in the same order.
        self._ever_ids.update(iter(processors))
        self.n_ever = len(processors)
        self._word_bits = words_to_bits(1, self.n_ever)
        records = {node: processor.edges for node, processor in processors.items()}
        for u, v in edges:
            links[u][v] = links[v][u] = _REAL_ONLY
            records[u][v] = records[v][u] = None

    def ever_had_processor(self, node: NodeId) -> bool:
        """True when ``node`` has had a processor at some point (alive or not).

        Distinguishes a *crashed* peer (messages to it are dropped by the
        senders, who observed the failure per Figure 1's model) from a
        receiver that never existed (still a protocol bug worth failing
        fast on in :meth:`send`).
        """
        return node in self._ever_ids

    def remove_processor(self, node: NodeId) -> None:
        """Remove a processor, its links, and every link source it anchored."""
        if node not in self.processors:
            raise UnknownNodeError(node, "remove_processor")
        del self.processors[node]
        if self.marks is not None:
            self.marks.removed.add(node)
        for neighbor, keys in self._links.pop(node).items():
            del self._links[neighbor][node]
            if keys:
                self._mark_link(node, neighbor, keys)

    def has_processor(self, node: NodeId) -> bool:
        """True when ``node`` currently has a processor."""
        return node in self.processors

    def are_linked(self, u: NodeId, v: NodeId) -> bool:
        """True when a link currently exists between ``u`` and ``v``."""
        return v in self._links.get(u, _NO_LINKS)

    # ------------------------------------------------------------------ #
    # sourced links (the healed graph as the processors know it)
    # ------------------------------------------------------------------ #
    def add_link_source(self, key: Tuple, u: NodeId, v: NodeId) -> None:
        """Record one source for the healed link ``(u, v)`` (idempotent).

        Creates the link if this is its first source.  Dead endpoints are
        tolerated silently: a message-driven update may race with the
        adversary's removal, and the removal wins.  The key is held as
        given, so a link's own real edge is added as :data:`REAL_EDGE`.
        """
        if u == v or u not in self.processors or v not in self.processors:
            return
        u_links = self._links[u]
        keys = u_links.get(v, ())
        if self.marks is not None:
            self._mark_link(u, v, keys)
        if key not in keys:
            u_links[v] = self._links[v][u] = keys + (key,)

    def remove_link_source(self, key: Tuple, u: NodeId, v: NodeId) -> None:
        """Drop one source of link ``(u, v)``; the link goes with its last
        source, whether or not a repair is open."""
        u_links = self._links.get(u, _NO_LINKS)
        keys = u_links.get(v)
        if not keys:
            return
        if self.marks is not None:
            self._mark_link(u, v, keys)
        if key not in keys:
            return
        keys = tuple(other for other in keys if other != key)
        if keys:
            u_links[v] = self._links[v][u] = keys
        else:
            del u_links[v], self._links[v][u]

    def has_link_source(self, key: Tuple, u: NodeId, v: NodeId) -> bool:
        """True when ``key`` currently sources the link ``(u, v)``
        (``real_source_key(u, v)`` does while the link holds its real edge)."""
        keys = self._links.get(u, _NO_LINKS).get(v, ())
        return key in keys or (REAL_EDGE in keys and key == real_source_key(u, v))

    def link_source_count(self, u: NodeId, v: NodeId) -> int:
        """Number of sources of link ``(u, v)`` (the engine's edge multiplicity)."""
        return len(self._links.get(u, _NO_LINKS).get(v, ()))

    def link_sources(self, u: NodeId, v: NodeId) -> frozenset:
        """The source keys of link ``(u, v)`` as they leave the network; empty
        when it is unsourced or absent."""
        return frozenset(_exported(self._links.get(u, _NO_LINKS).get(v, ()), u, v))

    def replace_link_sources(self, expected: Dict[frozenset, Set[Tuple]]) -> None:
        """Give each link of ``expected`` exactly its keys (a checkpoint restore's bulk write).

        ``expected`` is keyed by ``frozenset`` endpoint pairs — the format
        :meth:`export_link_sources` writes and the checkpoint store reloads.
        A link's own ``real_source_key`` becomes :data:`REAL_EDGE`.  Each
        link is created if absent; every other link is left as it is.
        An entry naming a node without a processor raises
        :class:`UnknownNodeError` before anything is written.
        """
        for link in expected:
            for node in link:
                if node not in self.processors:
                    raise UnknownNodeError(node, "replace_link_sources")
        for link, keys in expected.items():
            u, v = link
            real = real_source_key(u, v)
            keys = tuple(REAL_EDGE if key == real else key for key in keys)
            self._mark_link(u, v, self._links[u].get(v, ()))
            self._set_keys(u, v, _REAL_ONLY if keys == _REAL_ONLY else keys)

    def export_link_sources(self) -> Dict[frozenset, Set[Tuple]]:
        """Snapshot every sourced link in the ``frozenset`` wire format.

        The inverse of :meth:`replace_link_sources`.  Each link is visited
        once and unsourced links are left out.
        """
        out: Dict[frozenset, Set[Tuple]] = {}
        visited: Set[NodeId] = set()
        for node, links in self._links.items():
            for neighbor, keys in links.items():
                if keys and neighbor not in visited:
                    out[frozenset((node, neighbor))] = set(_exported(keys, node, neighbor))
            visited.add(node)
        return out

    def set_census(self, n_ever: int, ever_ids: Iterable[NodeId] = ()) -> None:
        """Restore the addition-counted census after a checkpoint reload.

        ``add_processor`` counts additions, so a network rebuilt from only
        the *surviving* processors would under-count ``n_ever`` (message
        sizing, and the ``verify_consistency`` cross-check against the
        engine's ``nodes_ever``, both read it) and forget which identifiers
        ever existed (``ever_had_processor`` distinguishes crashed peers
        from protocol bugs).  The checkpoint loader sets both explicitly;
        the word size is recomputed to match.  Only the ids the set lacks
        are added, one at a time: merging a whole set would size the table
        for both (nearly equal) sets at once.
        """
        if n_ever < len(self.processors):
            raise ValueError(
                f"census {n_ever} is smaller than the {len(self.processors)} "
                "live processors"
            )
        self.n_ever = n_ever
        ever = self._ever_ids
        ever.update(node for node in ever_ids if node not in ever)
        self._word_bits = words_to_bits(1, self.n_ever)

    # ------------------------------------------------------------------ #
    # repair scaffolding
    # ------------------------------------------------------------------ #
    def begin_scaffold(self) -> None:
        """Open a repair: until :meth:`end_scaffold`, any two live processors
        may talk, over a temporary edge the link table never holds."""
        self._scaffold_open = True

    def end_scaffold(self) -> None:
        """Close the open repair: its temporary edges go with it, and an
        unlinked send raises again."""
        self._scaffold_open = False

    def num_links(self) -> int:
        """Number of current links (O(n) sum of neighbour-map sizes)."""
        return sum(len(links) for links in self._links.values()) // 2

    def iter_links(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate the current links in arbitrary endpoint/iteration order.

        The unsorted fast accessor for internal consumers (set builders,
        graph constructors) — no per-pair order-key comparisons.
        Use :meth:`links` when canonical tuple order matters.
        """
        seen: Set[NodeId] = set()
        for node, links in self._links.items():
            for other in links:
                if other not in seen:
                    yield (node, other)
            seen.add(node)

    def links(self) -> Set[Tuple[NodeId, NodeId]]:
        """Return the current link set as canonically ordered tuples (inspection only).

        Tuple endpoints are ordered by :func:`repro.core.ports.node_order_key`,
        the repository's relabeling-invariant total order on node identifiers.
        """
        result: Set[Tuple[NodeId, NodeId]] = set()
        for u, v in self.iter_links():
            result.add((u, v) if node_order_key(u) < node_order_key(v) else (v, u))
        return result

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Current link neighbours of ``node``, in canonical :func:`node_order_key` order."""
        return sorted_nodes(self._links.get(node, _NO_LINKS))

    # ------------------------------------------------------------------ #
    # message passing
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Queue a message for delivery in the next round.

        The sender and receiver must currently be linked — the paper's
        model only lets processors talk to their immediate neighbours
        (names of other vertices may be *carried* in messages, but not used
        as direct destinations), so an unlinked send raises
        :class:`ProtocolError`.  While a repair is open
        (:meth:`begin_scaffold`), any two live processors may talk: the
        repair is entitled to its own temporary edges (Algorithm A.3), and
        one that carries a message is never written into the link table.
        """
        sender = message.sender
        receiver = message.receiver
        processors = self.processors
        if sender not in processors:
            raise ProtocolError(f"sender {sender!r} does not exist")
        if receiver not in processors:
            raise ProtocolError(f"receiver {receiver!r} does not exist")
        if (
            not self._scaffold_open
            and receiver not in self._links[sender]
            and sender != receiver
        ):
            raise ProtocolError(
                f"{message.kind} from {sender!r} to {receiver!r} "
                "would travel between unlinked processors"
            )
        schedule = self.fault_schedule
        if (
            schedule is not None
            and message.byz_origin is None
            and schedule.has_byzantine
            and sender != receiver
            and schedule.is_byzantine(sender)
        ):
            # Payload corruption happens per outgoing copy, so one logical
            # instruction fanned out to several recipients can carry a
            # different lie to each — equivocation needs no extra machinery.
            schedule.corrupt_in_place(message)
        if message.byz_origin is not None:
            self.injection_log.note_sent(message.byz_origin, self._round)
        # ``payload_words * _word_bits`` equals ``message.size_bits(n_ever)``
        # (same formula, the log cached per processor addition).  Every
        # repair-protocol message carries the ``deleted`` victim it serves,
        # which keys the per-repair epoch windows.
        self.metrics.record_message(
            sender, message.kind, message.payload_words * self._word_bits, message.deleted
        )
        self._outbox.append(message)

    def deliver_round(self) -> int:
        """Advance one synchronous round; returns how many messages were delivered.

        The round's batch is this round's outbox plus any fault-delayed
        messages that came due.  The fault schedule (if any) judges every
        fresh message — drop, delay, or deliver — and may shuffle the
        batch's delivery order.  A message that drew a delay is delivered
        as-is when it comes due, so its fate stays within the policy's
        1..max_delay contract.  Handlers may respond with new messages;
        those are sent within this round and therefore delivered in the
        next one.
        """
        self._round += 1
        self.metrics.record_rounds(1)
        outbox, self._outbox = self._outbox, []
        schedule = self.fault_schedule
        if schedule is None:
            batch = outbox
        else:
            batch = []
            for message in outbox:
                if message.sender != message.receiver:
                    fate = schedule.judge(message.sender, message.receiver)
                    if fate < 0:
                        self.metrics.record_dropped(epoch=message.deleted)
                        continue
                    if fate > 0:
                        self._delayed.append((self._round + fate, message))
                        continue
                batch.append(message)
        if self._delayed:
            batch = batch + [m for at, m in self._delayed if at <= self._round]
            self._delayed = [(at, m) for at, m in self._delayed if at > self._round]
        if schedule is not None and schedule.has_reorder:
            permutation = schedule.shuffle_round([(m.sender, m.receiver) for m in batch])
            if permutation is not None:
                batch = [batch[i] for i in permutation]
        delivered = 0
        processors, send = self.processors, self.send
        for message in batch:
            processor = processors.get(message.receiver)
            if processor is None:
                # Receiver died mid-round; the paper assumes one attack per round.
                continue
            if message.byz_origin is not None:
                self.injection_log.note_delivered(message.byz_origin, message.receiver)
            delivered += 1
            for response in processor.receive(message):
                send(response)
        return delivered

    def drop_in_flight(self) -> int:
        """Discard every queued and fault-delayed message; returns how many.

        Used by the recovery driver when its round budget runs out
        mid-delivery: the leftover traffic is *counted* into the recovery
        report and removed, because delivering it during a later repair
        could apply stale instructions.  Each discard is folded into the
        ``dropped`` ledger of its epoch's window — a message the driver
        threw away is as lost as one the network dropped, and the cost rows
        should say so.
        """
        leftover = self._outbox + [message for _, message in self._delayed]
        for message in leftover:
            self.metrics.record_dropped(epoch=message.deleted)
        self._outbox = []
        self._delayed = []
        return len(leftover)

    def in_flight_for(self, victim: NodeId) -> int:
        """Queued + fault-delayed messages belonging to ``victim``'s repair.

        The concurrent batch driver uses this as the per-epoch quiescence
        test (a repair's own traffic has drained even while its wave
        siblings are still talking).  O(in-flight) per call — the queues at
        these scales are short-lived round buffers.
        """
        return sum(1 for message in self._outbox if message.deleted == victim) + sum(
            1 for _, message in self._delayed if message.deleted == victim
        )

    # ------------------------------------------------------------------ #
    # byzantine accountability
    # ------------------------------------------------------------------ #
    def accuse(
        self,
        *,
        accused: NodeId,
        reporter: NodeId,
        reason: str,
        evidence: Iterable[Message],
    ) -> None:
        """Record a message-backed accusation and quarantine the accused.

        Called by processors from :meth:`Processor.receive` when a seal or
        checksum fails, or when a validly-sealed payload contradicts an
        already-witnessed one.
        """
        self.transcript.record(
            accused=accused,
            reporter=reporter,
            reason=reason,
            evidence=tuple(evidence),
            round=self._round,
        )
        self.quarantine(accused)

    def quarantine(self, node: NodeId) -> None:
        """Cut a detected liar off: drop its processor and every link it holds.

        Reuses the crash machinery — a quarantined processor looks exactly
        like a dead one to everybody else (sends to it are discarded, the
        recovery fixed point waives confirmations from it), so containment
        needs no new protocol states.
        """
        if node in self.quarantined:
            return
        self.quarantined.add(node)
        if node in self.processors:
            self.remove_processor(node)

    def tick(self, round_index: int, participants) -> List[Optional[int]]:
        """Fire the round-``round_index`` timers of the given processors.

        Synchronous protocols act on timeouts as well as on messages (an
        anchor ships its list when the probe deadline passes, whether or not
        every report made it back).  The round loop
        (:func:`~repro.distributed.protocol.execute_repair`) calls this once
        per round with only the participants that have a timer due, in
        participant order.  Returns each participant's next deadline after
        its tick, as :meth:`Processor.tick` reads it (``None`` when nothing
        is pending or the processor is gone).
        """
        deadlines: List[Optional[int]] = []
        processors, send = self.processors, self.send
        for node in participants:
            processor = processors.get(node)
            if processor is None:
                deadlines.append(None)
                continue
            messages, due = processor.tick(round_index)
            for message in messages:
                send(message)
            deadlines.append(due)
        return deadlines

    @property
    def in_flight(self) -> int:
        """Messages queued for the next round plus fault-delayed ones."""
        return len(self._outbox) + len(self._delayed)
