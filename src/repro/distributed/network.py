"""Synchronous round-based message-passing network.

This is the substrate replacing the paper's physical peer-to-peer network
(documented substitution in DESIGN.md): processors are Python objects, links
are entries of an adjacency structure, and time advances in synchronous
rounds — every message sent in round ``r`` is delivered at the start of round
``r + 1``, matching the paper's cost model where a message takes at most one
time unit to traverse an edge and local computation is free.

The topology is one adjacency dict keyed by node identifier (a set of
neighbours per processor) plus one link-source table keyed by the
``frozenset`` of a link's endpoints.  :meth:`Network.connect` /
:meth:`Network.disconnect` / :meth:`Network.are_linked` are O(1), neighbour
iteration and :meth:`Network.remove_processor` O(deg) — no operation on the
repair path ever scans the full link set.  The network enforces that
messages only travel along existing links (or repair scaffolding, see
below), and keeps the per-node and global counters that Lemma 4 bounds;
each message's ``deleted`` epoch tag charges it to its repair's
:class:`~repro.distributed.metrics.MetricsWindow` (opened with
``metrics.begin_epoch_window(victim)``), so a cost report is assembled from
O(repair) state instead of full counter snapshots.

There is one message path: a handler constructs a message, :meth:`send`
checks the link, applies any byzantine corruption, stamps the per-network
message id and counts it with one
:meth:`~repro.distributed.metrics.NetworkMetrics.record_message` call, and
:meth:`deliver_round` hands it to its receiver in the next round.

Two layers sit on top of the raw adjacency since the merge went
message-native (PR 4):

*Sourced links.*  A healed-graph link exists because one or more *sources*
project onto it: the surviving real edge, and any number of RT virtual
edges between the same two processors.  :meth:`add_link_source` /
:meth:`remove_link_source` maintain one set of source keys per link —
the distributed twin of the engine's edge-multiplicity counting — and the
link itself appears/disappears as its source set becomes (non-)empty.
Source updates are driven by received protocol messages (helper
assignments) and local strip knowledge, *not* by the reference engine.
Keyed sets (instead of bare counters) make the bookkeeping idempotent, so
retransmitted messages cannot corrupt the topology.

*Scaffolding.*  A repair creates temporary links for its own traffic (the
``BT_v`` tree, probe hops, merge wiring).  While a scaffold is open
(:meth:`begin_scaffold`), :meth:`send` auto-creates missing links and
records them; :meth:`end_scaffold` drops every recorded link that did not
acquire a source in the meantime — "delete the edges E_v" of Algorithm A.3,
decided from the network's own source sets rather than an engine probe.

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
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.errors import ProtocolError, UnknownNodeError
from ..core.ports import NodeId, NodeKey
from .accountability import AccountabilityTranscript, InjectionLog
from .faults import FaultSchedule
from .messages import Message, words_to_bits
from .metrics import NetworkMetrics
from .processor import Processor

__all__ = ["Network"]


class Network:
    """A synchronous message-passing network of :class:`Processor` objects."""

    def __init__(self, fault_schedule: Optional[FaultSchedule] = None) -> None:
        self.processors: Dict[NodeId, Processor] = {}
        #: Processor -> set of linked processors (empty set while isolated).
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}
        #: Link (``frozenset`` of its endpoints) -> set of source keys.
        self._sources: Dict[frozenset, Set[Tuple]] = {}
        self._outbox: List[Message] = []
        #: Messages a fault delayed: (deliver_at_round, message).
        self._delayed: List[Tuple[int, Message]] = []
        #: Per-network message id counter: every message entering this
        #: network is stamped from it, so ids are deterministic per run no
        #: matter how many networks the process ran before this one (the
        #: module-global fallback counter only serves messages that never
        #: touch a network).
        self._message_seq = 0
        self._round = 0
        self.metrics = NetworkMetrics()
        #: Optional fault injection applied at delivery time.
        self.fault_schedule = fault_schedule
        #: Links auto-created for the currently open repair scaffold
        #: (``None`` while no scaffold is open).
        self._scaffold: Optional[Set[frozenset]] = None
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

    def stamp(self, message: Message) -> Message:
        """Assign the next per-network id — for messages delivered out of
        band (never passing :meth:`send`, which stamps everything else)."""
        self._message_seq += 1
        message.message_id = self._message_seq
        return message

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
            self._adjacency.setdefault(node, set())
            self._ever_ids.add(node)
            self.n_ever += 1
            self._word_bits = words_to_bits(1, self.n_ever)
        return processor

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
        for neighbor in self._adjacency.pop(node, ()):
            self._adjacency[neighbor].discard(node)
            self._sources.pop(frozenset((node, neighbor)), None)

    def has_processor(self, node: NodeId) -> bool:
        """True when ``node`` currently has a processor."""
        return node in self.processors

    def connect(self, u: NodeId, v: NodeId) -> None:
        """Create a bidirectional link between two existing processors."""
        if u == v:
            return
        if u not in self.processors or v not in self.processors:
            raise UnknownNodeError(u if u not in self.processors else v, "connect")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def disconnect(self, u: NodeId, v: NodeId) -> None:
        """Drop the link between ``u`` and ``v`` if it exists (dead ends tolerated)."""
        self._unlink(u, v)
        self._sources.pop(frozenset((u, v)), None)

    def _unlink(self, u: NodeId, v: NodeId) -> None:
        adj_u = self._adjacency.get(u)
        if adj_u is not None:
            adj_u.discard(v)
        adj_v = self._adjacency.get(v)
        if adj_v is not None:
            adj_v.discard(u)

    def are_linked(self, u: NodeId, v: NodeId) -> bool:
        """True when a link currently exists between ``u`` and ``v``."""
        return v in self._adjacency.get(u, ())

    # ------------------------------------------------------------------ #
    # sourced links (the healed graph as the processors know it)
    # ------------------------------------------------------------------ #
    def add_link_source(self, key: Tuple, u: NodeId, v: NodeId) -> None:
        """Record one source for the healed link ``(u, v)`` (idempotent).

        Creates the link if this is its first source.  Dead endpoints are
        tolerated silently: a message-driven update may race with the
        adversary's removal, and the removal wins.
        """
        if u == v or u not in self.processors or v not in self.processors:
            return
        self._sources.setdefault(frozenset((u, v)), set()).add(key)
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def remove_link_source(self, key: Tuple, u: NodeId, v: NodeId) -> None:
        """Drop one source of link ``(u, v)``; the link vanishes at zero sources
        (unless an open repair scaffold is still using it)."""
        link = frozenset((u, v))
        sources = self._sources.get(link)
        if sources is None:
            return
        sources.discard(key)
        if not sources:
            del self._sources[link]
            if self._scaffold is None or link not in self._scaffold:
                self._unlink(u, v)

    def has_link_source(self, key: Tuple, u: NodeId, v: NodeId) -> bool:
        """True when ``key`` currently sources the link ``(u, v)``."""
        return key in self._sources.get(frozenset((u, v)), ())

    def link_source_count(self, u: NodeId, v: NodeId) -> int:
        """Number of sources of link ``(u, v)`` (the engine's edge multiplicity)."""
        return len(self._sources.get(frozenset((u, v)), ()))

    def replace_link_sources(self, expected: Dict[frozenset, Set[Tuple]]) -> None:
        """Overwrite the whole source table (the oracle resync's bulk write).

        ``expected`` is keyed by ``frozenset`` endpoint pairs — the format
        :meth:`DistributedForgivingGraph._sync_links_reference` produces and
        the checkpoint store reloads.
        """
        self._sources = {link: set(keys) for link, keys in expected.items()}

    def export_link_sources(self) -> Dict[frozenset, Set[Tuple]]:
        """Snapshot the whole source table in the ``frozenset`` wire format.

        The inverse of :meth:`replace_link_sources` — what the healer
        service's checkpoint writer reads, so a restored network can rebuild
        the healed graph's sourced links exactly.
        """
        return {link: set(keys) for link, keys in self._sources.items()}

    def set_census(self, n_ever: int, ever_ids: Iterable[NodeId] = ()) -> None:
        """Restore the addition-counted census after a checkpoint reload.

        ``add_processor`` counts additions, so a network rebuilt from only
        the *surviving* processors would under-count ``n_ever`` (message
        sizing, and the ``verify_consistency`` cross-check against the
        engine's ``nodes_ever``, both read it) and forget which identifiers
        ever existed (``ever_had_processor`` distinguishes crashed peers
        from protocol bugs).  The checkpoint loader sets both explicitly;
        the word size is recomputed to match.
        """
        if n_ever < len(self.processors):
            raise ValueError(
                f"census {n_ever} is smaller than the {len(self.processors)} "
                "live processors"
            )
        self.n_ever = n_ever
        self._ever_ids.update(ever_ids)
        self._word_bits = words_to_bits(1, self.n_ever)

    # ------------------------------------------------------------------ #
    # repair scaffolding
    # ------------------------------------------------------------------ #
    def begin_scaffold(self) -> None:
        """Open a scaffold: sends may auto-create links, all recorded."""
        self._scaffold = set()

    def scaffold_link(self, u: NodeId, v: NodeId) -> None:
        """Explicitly create (and record) a repair-local link."""
        if u == v or self.are_linked(u, v):
            return
        self.connect(u, v)
        if self._scaffold is not None:
            self._scaffold.add(frozenset((u, v)))

    def end_scaffold(self) -> int:
        """Drop every scaffold link that acquired no source; returns how many."""
        scaffold, self._scaffold = self._scaffold or set(), None
        dropped = [link for link in scaffold if link not in self._sources]
        for link in dropped:
            self.disconnect(*link)
        return len(dropped)

    def num_links(self) -> int:
        """Number of current links (O(n) sum of neighbour-set sizes)."""
        return sum(len(neighbors) for neighbors in self._adjacency.values()) // 2

    def iter_links(self) -> Iterator[Tuple[NodeId, NodeId]]:
        """Iterate the current links in arbitrary endpoint/iteration order.

        The unsorted fast accessor for internal consumers (set builders,
        graph constructors) — no per-pair :class:`NodeKey` comparisons.
        Use :meth:`links` when canonical tuple order matters.
        """
        seen: Set[NodeId] = set()
        for node, neighbors in self._adjacency.items():
            for other in neighbors:
                if other not in seen:
                    yield (node, other)
            seen.add(node)

    def links(self) -> Set[Tuple[NodeId, NodeId]]:
        """Return the current link set as canonically ordered tuples (inspection only).

        Tuple endpoints are ordered by :class:`repro.core.ports.NodeKey`, the
        repository's relabeling-invariant total order on node identifiers.
        """
        result: Set[Tuple[NodeId, NodeId]] = set()
        for u, v in self.iter_links():
            result.add((u, v) if NodeKey(u) < NodeKey(v) else (v, u))
        return result

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Current link neighbours of ``node``, in canonical :class:`NodeKey` order."""
        return sorted(self._adjacency.get(node, ()), key=NodeKey)

    # ------------------------------------------------------------------ #
    # message passing
    # ------------------------------------------------------------------ #
    def send(self, message: Message) -> None:
        """Queue a message for delivery in the next round.

        The sender and receiver must currently be linked — the paper's
        model only lets processors talk to their immediate neighbours
        (names of other vertices may be *carried* in messages, but not used
        as direct destinations), so an unlinked send raises
        :class:`ProtocolError`.  While a repair scaffold is open, a missing
        link is created and recorded instead: the repair is entitled to
        wire its own temporary edges (Algorithm A.3), and the scaffold
        teardown reclaims them.
        """
        sender = message.sender
        receiver = message.receiver
        if sender not in self.processors:
            raise ProtocolError(f"sender {sender!r} does not exist")
        if receiver not in self.processors:
            raise ProtocolError(f"receiver {receiver!r} does not exist")
        if sender != receiver and not self.are_linked(sender, receiver):
            if self._scaffold is not None:
                self.scaffold_link(sender, receiver)
            else:
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
        self.stamp(message)
        # ``payload_words * _word_bits`` equals ``message.size_bits(n_ever)``
        # (same formula, the log cached per processor addition).  Every
        # repair-protocol message carries the ``deleted`` victim it serves,
        # which keys the per-repair epoch windows.
        self.metrics.record_message(
            sender=sender,
            kind=message.kind,
            bits=message.payload_words * self._word_bits,
            epoch=message.deleted,
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
        for message in batch:
            processor = self.processors.get(message.receiver)
            if processor is None:
                # Receiver died mid-round; the paper assumes one attack per round.
                continue
            if message.byz_origin is not None:
                self.injection_log.note_delivered(message.byz_origin, message.receiver)
            responses = processor.receive(message)
            delivered += 1
            for response in responses or ():
                self.send(response)
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

    def tick(self, round_index: int, participants) -> int:
        """Fire the round-``round_index`` timers of the given processors.

        Synchronous protocols act on timeouts as well as on messages (an
        anchor ships its list when the probe deadline passes, whether or not
        every report made it back).  Returns how many messages the timers
        produced.
        """
        produced = 0
        for node in participants:
            processor = self.processors.get(node)
            if processor is None:
                continue
            for message in processor.tick(round_index) or ():
                self.send(message)
                produced += 1
        return produced

    def run_until_quiet(self, max_rounds: int = 10_000) -> int:
        """Deliver rounds until no messages remain in flight; returns rounds used."""
        rounds = 0
        while self.in_flight:
            if rounds >= max_rounds:
                raise ProtocolError(f"protocol did not quiesce within {max_rounds} rounds")
            self.deliver_round()
            rounds += 1
        return rounds

    @property
    def pending_messages(self) -> int:
        """Messages queued for the next round."""
        return len(self._outbox)

    @property
    def in_flight(self) -> int:
        """Messages queued for the next round plus fault-delayed ones."""
        return len(self._outbox) + len(self._delayed)
