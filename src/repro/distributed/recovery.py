"""Message-native anti-entropy recovery: gossip digests instead of a global audit.

A repair under a fault schedule can end with processors disagreeing.  This
module heals the divergence with the protocol shape of self-stabilizing
*silent* algorithms (Devismes–Masuzawa–Tixeuil): periodic compact state
digests whose communication cost is bounded and separately accountable,
instead of an audit against the full
:class:`~repro.distributed.protocol.RepairPlan` — knowledge no single
processor of the paper's model possesses.

One **gossip sweep** works like this (all of it local knowledge plus
messages delivered through :meth:`Network.deliver_round`, so injected
faults hit the recovery traffic exactly like they hit the repair's):

1. every repair participant derives digests from its *own* context and
   Table 1 records (:meth:`Processor.recovery_tick`) and pushes them along
   its spine/anchor links — probe status and vouched-for pieces to the
   spine predecessor, gathered descriptors up ``BT_v``;
2. the merge leader pulls :class:`~repro.distributed.messages.PortDigest`
   record summaries from the owners its own outcome instructs
   (:class:`~repro.distributed.messages.DigestRequest`);
3. each processor retransmits *only* what its neighbours' digests show
   missing: a predecessor resends the probe an unprobed successor reveals,
   the leader re-merges and re-disseminates under a higher epoch when
   digests surface unreported pieces, and re-instructs owners whose record
   digests diverge from its outcome.

A sweep that produces **no retransmission traffic** (only digests flowed)
is the silent fixed point: every piece the participants vouch for reached
the leader, every instruction of the leader's outcome is applied.
:class:`BackgroundRecovery` runs one repair's sweeps as a state machine
that the round loop (:func:`repro.distributed.protocol.execute_repair`)
polls once per round; a loop that runs out of rounds finishes it with
``converged=False`` and discards its epoch's in-flight traffic *loudly*,
so stale recovery traffic can never leak into the next repair.

Cost accounting mirrors the repair's: the whole recovery runs inside the
victim's epoch window (a :class:`~repro.distributed.metrics.MetricsWindow`
that every message tagged ``deleted == victim`` lands in), and the resulting
:class:`~repro.distributed.metrics.RecoveryCostReport` splits detection
cost (digest messages/bits — paid even when nothing was lost) from fault
cost (retransmissions), each checked against Lemma-4-style per-sweep
budgets.

Nothing global is left to consult: the healer drops each repair's plan
once :func:`~repro.distributed.protocol.seed_repair` has installed it, so
recovery has the participants' own contexts and records to work from.
Whether it reached the oracle's fixed point is checked, outside the
protocol, by :meth:`DistributedForgivingGraph.verify_consistency`.

Two byzantine notes.  Recovery traffic passes through the same
``receive()``-time verification as repair traffic, so a liar that keeps
lying during recovery is caught and quarantined mid-sweep; the fixed-point
predicate (:meth:`Processor.recovery_satisfied`) waives every obligation
towards crashed *or quarantined* peers, so convergence is reached around
them.  And budget exhaustion stays loud: the in-flight messages discarded
by :meth:`Network.drop_in_flight` are counted into their epoch window's
``dropped`` tally (and therefore into the reports), never silently thrown
away.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.ports import NodeId
from .metrics import MetricsWindow, RecoveryCostReport
from .network import Network

__all__ = ["BackgroundRecovery"]


class BackgroundRecovery:
    """Anti-entropy for one repair, polled once per round by the shared loop.

    :func:`~repro.distributed.protocol.execute_repair` owns the rounds, and
    several repairs may interleave in its ``Network.deliver_round`` stream,
    so each recovery is a per-repair state machine the loop polls after
    every round's delivery and timers.  Digest chunks ride the live fabric
    alongside other epochs' probes and reports (byzantine lies and delivery
    faults hit the mixed traffic), and each instance paces itself off its
    *own* epoch's quiescence: a sweep is emitted only when
    ``in_flight_for(victim)`` is zero, so acknowledgements from the previous
    chunked exchange have landed before the residue is re-offered.

    Termination: confirmed knowledge drops out of later sweeps, and a
    dropped digest stays unconfirmed and is re-offered, so lost detection
    traffic can never fake convergence; ``max_sweeps`` and the loop's round
    budget bound the pathological tail, reported as ``converged=False``.

    The silent-protocol property is made explicit: the first sweep emitted
    *after* every live participant's ``recovery_satisfied`` predicate holds
    is the **fixed-point probe**, and its emission count is recorded as
    ``fixed_point_messages``.  On the lossless path the probe provably
    emits nothing (every obligation a predicate waives or confirms is
    exactly what ``recovery_tick`` would re-offer), which
    ``tests/test_distributed_concurrent.py`` asserts as ``== 0``.
    """

    #: Consecutive quiet-but-unsatisfied polls tolerated before giving up
    #: loudly (cannot happen for live participants — an unsatisfied
    #: obligation towards a live peer always re-offers — but a guard beats
    #: an infinite loop if that invariant ever breaks).
    MAX_STALLS = 3

    def __init__(
        self,
        network: Network,
        *,
        victim: NodeId,
        participants: Sequence[NodeId],
        degree: int,
        n_ever: int,
        deadline: int,
        max_sweeps: int = 40,
        on_start: Optional[Callable[[], None]] = None,
    ) -> None:
        self.network = network
        self.victim = victim
        self.participants = list(participants)
        self.degree = degree
        self.n_ever = n_ever
        #: The repair's ``plan.max_deadline``: anti-entropy stays quiet
        #: until the repair-phase timers have all had their chance to fire.
        self.deadline = deadline
        self.max_sweeps = max_sweeps
        #: Invoked once, just before the first sweep's sends — the wave
        #: driver uses it to roll the victim's epoch window over from
        #: repair attribution to recovery attribution.
        self.on_start = on_start
        self.started = False
        self.start_round = 0
        self.end_round = 0
        self.sweeps = 0
        self.stalls = 0
        self.fixed_point_messages = -1
        self.converged = False
        self.finished = False
        #: This epoch's messages in flight when the round budget ran out.
        self.leftover = 0

    def finish(self, shared_round: int, leftover: int = 0) -> None:
        """Stop the machine (converged or not) at ``shared_round``.

        ``leftover`` is this epoch's in-flight count when the loop gave up,
        measured before the loop discards it.
        """
        self.end_round = shared_round
        self.leftover = leftover
        self.finished = True

    def step(self, shared_round: int) -> int:
        """Poll once at ``shared_round``; returns how many messages were sent.

        A no-op while the repair phase is still inside its deadline or while
        this epoch's own traffic is in flight; otherwise emits one gossip
        sweep (every live participant's ``recovery_tick`` residue).
        """
        if self.finished or shared_round < self.deadline:
            return 0
        if self.network.in_flight_for(self.victim):
            return 0
        if not self.started:
            self.started = True
            self.start_round = shared_round
            if self.on_start is not None:
                self.on_start()
        satisfied = all(
            self.network.processors[node].recovery_satisfied(self.victim)
            for node in self.participants
            if node in self.network.processors
        )
        emitted = 0
        for node in self.participants:
            processor = self.network.processors.get(node)
            if processor is None:
                continue  # crashed or quarantined; its knowledge died with it
            for message in processor.recovery_tick(self.victim):
                self.network.send(message)
                emitted += 1
        if satisfied:
            if self.fixed_point_messages < 0:
                self.fixed_point_messages = emitted
            if emitted == 0:
                self.converged = True
                self.finish(shared_round)
                return 0
        if emitted:
            self.stalls = 0
            self.sweeps += 1
            if self.sweeps >= self.max_sweeps:
                self.finish(shared_round)
        else:
            self.stalls += 1
            if self.stalls >= self.MAX_STALLS:
                self.finish(shared_round)
        return emitted

    def report(self, window: MetricsWindow) -> RecoveryCostReport:
        """Build this epoch's ledger from its closed recovery window.

        Every message of the window that is not a digest is a
        retransmission of repair traffic.
        """
        digest_messages = window.digest_messages
        digest_bits = window.digest_bits
        return RecoveryCostReport(
            victim=self.victim,
            degree=self.degree,
            n_ever=self.n_ever,
            converged=self.converged,
            sweeps=self.sweeps,
            rounds=max(self.end_round - self.start_round, 0) if self.started else 0,
            digest_messages=digest_messages,
            digest_bits=digest_bits,
            max_message_bits=window.max_message_bits,
            retransmissions=window.messages - digest_messages,
            retransmission_bits=window.bits - digest_bits,
            dropped=window.dropped,
            in_flight_leftover=self.leftover,
            fixed_point_messages=self.fixed_point_messages,
        )

