"""Message-native anti-entropy recovery: gossip digests instead of a global audit.

Until PR 5 the *repair* was message-native but the *recovery* was not:
:meth:`DistributedForgivingGraph.reconverge` audited every participant
against the full :class:`~repro.distributed.protocol.RepairPlan` and the
leader's outcome — knowledge no single processor of the paper's model
possesses.  This module replaces that god's-eye audit with the protocol
shape of self-stabilizing *silent* algorithms (Devismes–Masuzawa–Tixeuil):
periodic compact state digests whose communication cost is bounded and
separately accountable.

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
the leader, every instruction of the leader's outcome is applied.  The
driver, :func:`run_recovery`, repeats sweeps until that fixed point or
until its round budget runs out — in which case it reports
``converged=False`` together with the number of messages still in flight
(and discards them *loudly*, so stale recovery traffic can never leak into
the next repair).

Cost accounting mirrors the repair's: the whole recovery runs inside its
own :class:`~repro.distributed.metrics.MetricsWindow`, and the resulting
:class:`~repro.distributed.metrics.RecoveryCostReport` splits detection
cost (digest messages/bits — paid even when nothing was lost) from fault
cost (retransmissions), each checked against Lemma-4-style per-sweep
budgets.

The plan-based audit this module replaces survives as
:meth:`DistributedForgivingGraph._audit_reference` — an oracle used only by
``verify_consistency``-style checks; the recovery tests run with the
plan's global knowledge *poisoned* (``quarantine_plan_audit``) to prove the
recovery path never reads it.

Two byzantine-era notes (PR 6).  Recovery traffic passes through the same
``receive()``-time verification as repair traffic, so a liar that keeps
lying during recovery is caught and quarantined mid-sweep; the fixed-point
predicate (:meth:`Processor.recovery_satisfied`) waives every obligation
towards crashed *or quarantined* peers, so convergence is reached around
them.  And budget exhaustion stays loud: the in-flight messages discarded
by :meth:`Network.drop_in_flight` are counted into the metrics window's
``dropped`` tally (and therefore into the reports), never silently thrown
away.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..core.ports import NodeId
from .metrics import DIGEST_KINDS, MetricsWindow, RecoveryCostReport
from .network import Network

__all__ = ["BackgroundRecovery", "run_recovery"]


def _non_digest_messages(window: MetricsWindow) -> int:
    """Retransmission traffic recorded so far: everything that is not a digest."""
    return window.messages - window.count_for_kinds(DIGEST_KINDS)


class BackgroundRecovery:
    """Piggybacked anti-entropy for one repair inside a *shared* round loop.

    :func:`run_recovery` is a standalone post-hoc phase: it owns the round
    loop, sweeps, drains, and returns.  The concurrent batch driver
    (``DistributedForgivingGraph.delete_batch``) cannot hand any single
    repair the loop — several repairs interleave in the same
    ``Network.deliver_round`` stream — so this class is the same gossip
    protocol re-cut as a per-repair state machine the driver polls once per
    shared round.  Digest chunks ride the live fabric alongside other
    epochs' probes and reports (byzantine lies and delivery faults hit the
    mixed traffic), and each instance paces itself off its *own* epoch's
    quiescence: a sweep is emitted only when ``in_flight_for(victim)`` is
    zero, so acknowledgements from the previous chunked exchange have
    landed before the residue is re-offered.

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
        #: Invoked once, just before the first sweep's sends — the batch
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

    def finish(self, shared_round: int) -> None:
        """Stop the machine (converged or not) at ``shared_round``."""
        self.end_round = shared_round
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

    def report(self, window: MetricsWindow, leftover: int = 0) -> RecoveryCostReport:
        """Build this epoch's ledger from its closed recovery window.

        ``leftover`` is this epoch's in-flight count at the moment the
        driver gave up (measured *before* the loud discard, which is global
        across the wave).
        """
        return RecoveryCostReport(
            victim=self.victim,
            degree=self.degree,
            n_ever=self.n_ever,
            converged=self.converged,
            sweeps=self.sweeps,
            rounds=max(self.end_round - self.start_round, 0) if self.started else 0,
            digest_messages=window.count_for_kinds(DIGEST_KINDS),
            digest_bits=window.bits_for_kinds(DIGEST_KINDS),
            max_message_bits=window.max_message_bits,
            retransmissions=_non_digest_messages(window),
            retransmission_bits=window.bits - window.bits_for_kinds(DIGEST_KINDS),
            dropped=window.dropped,
            in_flight_leftover=leftover,
            fixed_point_messages=self.fixed_point_messages,
        )


def run_recovery(
    network: Network,
    *,
    victim: NodeId,
    participants: Sequence[NodeId],
    degree: int,
    n_ever: int,
    leader: Optional[NodeId] = None,
    max_rounds: int = 600,
    max_sweeps: int = 40,
) -> RecoveryCostReport:
    """Drive gossip sweeps for one repair until the silent fixed point.

    The driver is deliberately thin: it only fires the participants'
    recovery timers (``recovery_tick`` — the synchronous model's "everyone
    knows the round number") and delivers rounds; every detection and every
    retransmission decision is made by a processor from its own context and
    the digests that physically reached it.  ``leader`` is accepted for
    symmetry with the plan but not consulted — the leader acts because its
    own context says it is the leader.

    Termination: the protocol is *silent* in the self-stabilizing sense —
    digests are acknowledged chunk by chunk, confirmed knowledge drops out
    of later sweeps, and at the fixed point a sweep emits nothing at all.
    The driver stops once every live participant reports
    :meth:`Processor.recovery_satisfied` — a predicate each processor
    computes from its own context and the acknowledgements that physically
    reached it (a dropped digest simply stays unconfirmed and is re-offered
    next sweep, so lost *detection* traffic can never fake convergence).
    With any fault probability below one every chunk is eventually
    delivered and acknowledged, so convergence is almost sure;
    ``max_sweeps`` / ``max_rounds`` bound the pathological tail, and
    hitting them is reported (``converged=False`` plus the leftover
    in-flight count) rather than silently swallowed.
    """
    network.metrics.begin_window()
    network.begin_scaffold()
    converged = False
    sweeps = 0
    rounds = 0
    leftover = 0
    try:
        while sweeps < max_sweeps and rounds < max_rounds:
            sweeps += 1
            for node in participants:
                processor = network.processors.get(node)
                if processor is None:
                    continue  # crashed mid-recovery; its knowledge died with it
                for message in processor.recovery_tick(victim):
                    network.send(message)
            while network.in_flight and rounds < max_rounds:
                network.deliver_round()
                rounds += 1
            if network.in_flight:
                break  # round budget hit mid-delivery; reported below
            if all(
                network.processors[node].recovery_satisfied(victim)
                for node in participants
                if node in network.processors
            ):
                # Every live participant's obligations are acknowledged:
                # the next sweep would be empty — the protocol is silent.
                converged = True
                break
    finally:
        # Cleanup must run on the exception path too: the satellite fix for
        # the old reconverge() — traffic still in flight at the budget's
        # edge (or when a handler raised) is counted into the report and
        # discarded explicitly, because delivering it during a *later*
        # repair could apply stale instructions; and the metrics window
        # must never be left open for the next repair to inherit.
        network.end_scaffold()
        if not converged:
            leftover = network.drop_in_flight()
        window = network.metrics.end_window()
    return RecoveryCostReport(
        victim=victim,
        degree=degree,
        n_ever=n_ever,
        converged=converged,
        sweeps=sweeps,
        rounds=rounds,
        digest_messages=window.count_for_kinds(DIGEST_KINDS),
        digest_bits=window.bits_for_kinds(DIGEST_KINDS),
        max_message_bits=window.max_message_bits,
        retransmissions=_non_digest_messages(window),
        retransmission_bits=window.bits - window.bits_for_kinds(DIGEST_KINDS),
        dropped=window.dropped,
        in_flight_leftover=leftover,
    )
