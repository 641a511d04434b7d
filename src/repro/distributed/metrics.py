"""Communication-cost accounting for the distributed protocol.

Lemma 4 bounds, per deletion of a degree-``d`` node in a network of ``n``
nodes seen so far:

* total messages: ``O(d log n)``,
* message size:   ``O(log n)`` bits,
* recovery time:  ``O(log d log n)`` rounds.

:class:`NetworkMetrics` accumulates the raw counts while the simulator runs;
:class:`MetricsWindow` is the per-repair slice of those counters.  Every
repair-protocol message carries its repair's victim as epoch tag
(``deleted``), so :meth:`NetworkMetrics.begin_epoch_window` keyed by the
victim is the one per-repair ledger — for a lone ``delete``, for each
repair of a ``delete_batch`` wave, and for a recovery pass — and a cost
report is computed from O(repair) state instead of diffing full counter
snapshots.  :class:`DeletionCostReport` is the per-deletion record the
experiments, the healer benchmark and the tests consume (experiment E5 in
DESIGN.md).

Recovery has its own ledger (PR 5): the gossip-digest anti-entropy protocol
(:mod:`repro.distributed.recovery`) runs inside its own epoch window, and
:class:`RecoveryCostReport` splits its traffic into *digest* cost (the
price of detection — paid even when nothing was lost) and *retransmission*
cost (the price of the faults), with Lemma-4-style per-sweep budgets.
Each faulty deletion's :class:`DeletionCostReport` embeds the
:class:`RecoveryCostReport` of its recovery pass.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.bounds import repair_message_bound, repair_time_bound
from ..core.ports import NodeId

__all__ = [
    "MetricsWindow",
    "NetworkMetrics",
    "BurstCostReport",
    "DeletionCostReport",
    "RecoveryCostReport",
    "ByzantineReport",
    "DIGEST_KINDS",
    "aggregate_recovery",
    "aggregate_byzantine",
]

#: Message kinds that belong to the anti-entropy detection layer; everything
#: else sent during a recovery window is a retransmission of repair traffic.
DIGEST_KINDS = frozenset({"Digest", "DigestRequest"})


@dataclass
class MetricsWindow:
    """Counters restricted to one repair: its epoch's traffic while it is open.

    The window only ever holds state proportional to the repair it measures
    (its per-sender dict has one entry per processor that actually sent a
    message), which is what keeps the simulator's per-deletion accounting
    O(delta) — diffing two copies of the run-wide counters would be O(n)
    per deletion regardless of how small the repair was.  A message's counts
    are written here by :meth:`NetworkMetrics.record_message` itself.
    """

    messages: int = 0
    bits: int = 0
    #: Messages a fault dropped while the window was open.
    dropped: int = 0
    #: Largest single message sent *within the window* (the per-repair value
    #: Lemma 4 bounds; the run-wide maximum stays on :class:`NetworkMetrics`).
    max_message_bits: int = 0
    messages_by_node: Dict[NodeId, int] = field(default_factory=lambda: defaultdict(int))
    #: Messages and bits of the :data:`DIGEST_KINDS` within the window: the
    #: recovery ledger splits digest traffic from retransmitted repair
    #: traffic with these, and nothing reads any other kind's share.
    digest_messages: int = 0
    digest_bits: int = 0

    def record_dropped(self) -> None:
        """Account for one fault-dropped (or loudly discarded) message."""
        self.dropped += 1

    def max_messages_per_node(self) -> int:
        """The busiest single sender's message count within the window."""
        return max(self.messages_by_node.values(), default=0)


@dataclass
class NetworkMetrics:
    """Running totals of the message-passing simulator.

    Per-sender and digest counts live only on each repair's
    :class:`MetricsWindow`.
    """

    total_messages: int = 0
    total_bits: int = 0
    total_rounds: int = 0
    #: Messages lost to fault injection over the whole run.
    total_dropped: int = 0
    #: Largest single message of the whole run (cumulative; per-repair maxima
    #: live on the :class:`MetricsWindow` of each repair).
    max_message_bits: int = 0
    #: Open per-repair windows, keyed by the repair's victim (every
    #: repair-protocol message carries ``deleted``, so the victim IS the
    #: epoch tag).  Empty between repairs.
    epoch_windows: Dict[object, MetricsWindow] = field(default_factory=dict)

    def begin_epoch_window(self, key: object) -> MetricsWindow:
        """Open a window attributed to one repair epoch (keyed by victim)."""
        window = MetricsWindow()
        self.epoch_windows[key] = window
        return window

    def end_epoch_window(self, key: object) -> MetricsWindow:
        """Close one epoch window (empty window if the key was never opened)."""
        return self.epoch_windows.pop(key, None) or MetricsWindow()

    def record_message(self, sender: NodeId, kind: str, bits: int, epoch: object = None) -> None:
        """Account for one sent message: in the run-wide totals, and in the
        open window of its ``epoch``, if there is one (the one ledger call a
        message costs)."""
        self.total_messages += 1
        self.total_bits += bits
        if bits > self.max_message_bits:
            self.max_message_bits = bits
        if self.epoch_windows:
            window = self.epoch_windows.get(epoch)
            if window is not None:
                window.messages += 1
                window.bits += bits
                if bits > window.max_message_bits:
                    window.max_message_bits = bits
                window.messages_by_node[sender] += 1
                if kind in DIGEST_KINDS:
                    window.digest_messages += 1
                    window.digest_bits += bits

    def record_rounds(self, rounds: int) -> None:
        """Account for ``rounds`` parallel communication rounds."""
        self.total_rounds += rounds

    def record_dropped(self, epoch: object = None) -> None:
        """Account for one message lost to fault injection (or discarded loudly)."""
        self.total_dropped += 1
        if self.epoch_windows:
            epoch_window = self.epoch_windows.get(epoch)
            if epoch_window is not None:
                epoch_window.record_dropped()


@dataclass
class RecoveryCostReport:
    """Communication cost of one anti-entropy recovery pass (PR 5).

    The gossip-digest protocol has two separable costs:

    * **detection** — the :class:`~repro.distributed.messages.Digest` /
      :class:`~repro.distributed.messages.DigestRequest` traffic each sweep
      pays whether or not anything was lost (``digest_messages`` /
      ``digest_bits``), and
    * **repair** — the protocol messages retransmitted because a digest
      showed them missing (``retransmissions`` / ``retransmission_bits``).

    ``sweeps`` counts gossip passes (every participant digests once per
    sweep); ``rounds`` counts the delivery rounds they consumed.  One sweep's
    digest traffic is bounded by the same ``O(d log n)`` counting as the
    repair itself (each participant's digest is proportional to its own
    local knowledge), which :attr:`within_digest_budget` checks explicitly.
    """

    victim: NodeId
    #: Degree of the repaired deletion's victim (the ``d`` of the budgets).
    degree: int
    #: Number of nodes seen so far (the ``n`` of the budgets).
    n_ever: int
    converged: bool
    #: Gossip passes driven (one digest emission per participant per sweep).
    sweeps: int = 0
    #: Delivery rounds consumed across all sweeps.
    rounds: int = 0
    digest_messages: int = 0
    digest_bits: int = 0
    #: Largest single message sent during recovery (digest or retransmission).
    max_message_bits: int = 0
    retransmissions: int = 0
    retransmission_bits: int = 0
    #: Messages lost to faults during the recovery itself.
    dropped: int = 0
    #: Messages still in flight when the recovery gave up (0 when converged;
    #: a non-zero value means ``max_rounds`` hit mid-delivery and the
    #: leftover traffic was discarded *loudly* instead of leaking into the
    #: next repair).
    in_flight_leftover: int = 0
    #: Messages emitted by the first anti-entropy sweep run *after* every
    #: participant's ``recovery_satisfied`` predicate already held — the
    #: fixed-point probe.  The silent-protocol property says this is 0 on
    #: the lossless path; -1 means the recovery never started (its repair's
    #: traffic never drained, or the round budget ran out first).
    fixed_point_messages: int = -1

    @property
    def digest_message_budget(self) -> float:
        """Per-pass ``O(d log n)`` budget scaled by the number of sweeps."""
        return max(self.sweeps, 1) * repair_message_bound(max(self.degree, 1), self.n_ever)

    @property
    def round_budget(self) -> float:
        """Per-pass ``O(log d log n)`` budget scaled by the number of sweeps."""
        return max(self.sweeps, 1) * repair_time_bound(max(self.degree, 1), self.n_ever)

    @property
    def within_digest_budget(self) -> bool:
        """True when the detection traffic fits its Lemma-4-style budget."""
        return self.digest_messages <= self.digest_message_budget + 1e-9

    @property
    def within_round_budget(self) -> bool:
        """True when the recovery rounds fit their Lemma-4-style budget."""
        return self.rounds <= self.round_budget + 1e-9

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the table reporters."""
        return {
            "victim": self.victim,
            "degree": self.degree,
            "n_ever": self.n_ever,
            "converged": self.converged,
            "sweeps": self.sweeps,
            "rounds": self.rounds,
            "digest_messages": self.digest_messages,
            "digest_bits": self.digest_bits,
            "digest_budget": round(self.digest_message_budget, 1),
            "retransmissions": self.retransmissions,
            "retransmission_bits": self.retransmission_bits,
            "dropped": self.dropped,
            "in_flight_leftover": self.in_flight_leftover,
            "fixed_point_messages": self.fixed_point_messages,
        }


def aggregate_recovery(reports) -> Dict[str, object]:
    """Fold a run's :class:`RecoveryCostReport` list into one summary row.

    The shared core every recovery consumer reports (experiment E12);
    callers add their own extra columns on top, so a field added here
    reaches all of them at once.
    """
    reports = list(reports)
    return {
        "recoveries": len(reports),
        "sweeps": sum(r.sweeps for r in reports),
        "rounds": sum(r.rounds for r in reports),
        "digest_messages": sum(r.digest_messages for r in reports),
        "digest_bits": sum(r.digest_bits for r in reports),
        "retransmissions": sum(r.retransmissions for r in reports),
        "dropped_in_recovery": sum(r.dropped for r in reports),
        "all_converged": all(r.converged for r in reports),
        "within_digest_budgets": all(r.within_digest_budget for r in reports),
        "within_round_budgets": all(r.within_round_budget for r in reports),
    }


@dataclass
class ByzantineReport:
    """Per-deletion byzantine accountability deltas (PR 6).

    Assembled by the simulator from the round's transcript/injection-log
    deltas.  The headline quantity is the **containment radius** of each
    processor accused during this deletion — how many distinct processors
    one of its corrupted payloads reached before the quarantine cut it
    off — together with the **detection latency** in delivery rounds
    between its first delivered lie and its first accusation.
    ``false_accusations`` counts accused processors the injection schedule
    says were honest; ``tests/test_distributed_byzantine.py`` pins it at
    zero.
    """

    #: Corrupted payloads sent / actually delivered during this deletion.
    lies_sent: int = 0
    lies_delivered: int = 0
    #: Accusations appended to the transcript during this deletion.
    accusations: int = 0
    #: Processors first accused during this deletion.
    newly_accused: Tuple[NodeId, ...] = ()
    #: Newly accused processors the fault schedule says were honest.
    false_accusations: int = 0
    #: Containment radius per newly accused processor.
    containment: Dict[NodeId, int] = field(default_factory=dict)
    #: Detection latency (rounds) per newly accused processor.
    detection_latency: Dict[NodeId, int] = field(default_factory=dict)
    #: Cumulative quarantine count after this deletion.
    quarantined_total: int = 0

    @property
    def max_containment_radius(self) -> int:
        return max(self.containment.values(), default=0)

    @property
    def max_detection_latency(self) -> int:
        return max(self.detection_latency.values(), default=0)

    def as_row(self) -> Dict[str, object]:
        return {
            "lies_sent": self.lies_sent,
            "lies_delivered": self.lies_delivered,
            "accusations": self.accusations,
            "newly_accused": len(self.newly_accused),
            "false_accusations": self.false_accusations,
            "containment_radius": self.max_containment_radius,
            "detection_latency": self.max_detection_latency,
            "quarantined_total": self.quarantined_total,
        }


def aggregate_byzantine(reports) -> Dict[str, object]:
    """Fold a run's :class:`ByzantineReport` list into one summary row.

    The shared core of E13 and the byzantine preset tests
    (mirroring :func:`aggregate_recovery` for the recovery ledger).
    """
    reports = [report for report in reports if report is not None]
    accused = set()
    radii = []
    latencies = []
    for report in reports:
        accused.update(report.newly_accused)
        radii.extend(report.containment.values())
        latencies.extend(report.detection_latency.values())
    return {
        "deletions": len(reports),
        "lies_sent": sum(r.lies_sent for r in reports),
        "lies_delivered": sum(r.lies_delivered for r in reports),
        "accusations": sum(r.accusations for r in reports),
        "accused": len(accused),
        "false_accusations": sum(r.false_accusations for r in reports),
        "max_containment_radius": max(radii, default=0),
        "mean_containment_radius": (
            round(sum(radii) / len(radii), 2) if radii else 0.0
        ),
        "max_detection_latency": max(latencies, default=0),
        "mean_detection_latency": (
            round(sum(latencies) / len(latencies), 2) if latencies else 0.0
        ),
    }


@dataclass
class DeletionCostReport:
    """Communication cost of a single deletion repair."""

    deleted_node: NodeId
    #: Degree of the deleted node in ``G'`` (the ``d`` of Lemma 4).
    degree: int
    #: Number of nodes seen so far (the ``n`` of Lemma 4).
    n_ever: int
    messages: int
    bits: int
    #: Rounds of the loop the repair ran in: its wave's shared rounds, the
    #: wave's recoveries included.
    rounds: int
    #: Largest single message sent *during this repair* (not the run so far).
    max_message_bits: int
    max_messages_per_node: int
    helpers_created: int
    helpers_released: int
    #: Fault-tolerance accounting (all zero on a lossless network).
    dropped_messages: int = 0
    retransmissions: int = 0
    #: This repair's recovery's share of ``rounds`` (0 when none ran).
    reconvergence_rounds: int = 0
    converged: bool = True
    #: Full ledger of this deletion's anti-entropy recovery pass, when one
    #: ran (the scalar fields above are its headline numbers, kept flat for
    #: the table reporters and for back-compat).
    recovery: Optional[RecoveryCostReport] = None
    #: Byzantine accountability deltas for this deletion (``None`` when the
    #: run has no byzantine axis).
    byzantine: Optional[ByzantineReport] = None

    @property
    def message_budget(self) -> float:
        """The explicit ``O(d log n)`` message budget this repair is checked against."""
        return repair_message_bound(self.degree, self.n_ever)

    @property
    def round_budget(self) -> float:
        """The explicit ``O(log d log n)`` round budget this repair is checked against."""
        return repair_time_bound(self.degree, self.n_ever)

    @property
    def within_message_budget(self) -> bool:
        """True when the measured message count is within the Lemma 4 budget."""
        return self.messages <= self.message_budget + 1e-9

    @property
    def within_round_budget(self) -> bool:
        """True when the measured round count is within the Lemma 4 budget."""
        return self.rounds <= self.round_budget + 1e-9

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the table reporters."""
        return {
            "deleted": self.deleted_node,
            "degree": self.degree,
            "n_ever": self.n_ever,
            "messages": self.messages,
            "message_budget": round(self.message_budget, 1),
            "rounds": self.rounds,
            "round_budget": round(self.round_budget, 1),
            "max_message_bits": self.max_message_bits,
            "max_messages_per_node": self.max_messages_per_node,
            "helpers_created": self.helpers_created,
            "helpers_released": self.helpers_released,
            "dropped_messages": self.dropped_messages,
            "retransmissions": self.retransmissions,
            "reconvergence_rounds": self.reconvergence_rounds,
            "converged": self.converged,
            "recovery_sweeps": self.recovery.sweeps if self.recovery else 0,
            "digest_messages": self.recovery.digest_messages if self.recovery else 0,
            "digest_bits": self.recovery.digest_bits if self.recovery else 0,
            "lies_delivered": self.byzantine.lies_delivered if self.byzantine else 0,
            "accusations": self.byzantine.accusations if self.byzantine else 0,
            "containment_radius": (
                self.byzantine.max_containment_radius if self.byzantine else 0
            ),
        }


@dataclass
class BurstCostReport:
    """Cost of one ``delete_batch`` call (a burst of overlapping deletions).

    The headline claim of the concurrent driver is that a burst of ``k``
    disjoint-footprint deletions costs ~max, not ~sum, of the individual
    repair latencies: ``rounds`` counts *shared* delivery rounds (all
    repairs of a wave interleave in the same ``deliver_round`` stream, so a
    wave's rounds are paid once no matter how many repairs ride it), while
    the per-victim :class:`DeletionCostReport`\\ s in ``reports`` still carry
    exact per-epoch message/bit attribution from their epoch windows.
    """

    victims: Tuple[NodeId, ...]
    #: The admission cap the burst ran under (``None`` = unbounded).
    concurrency: Optional[int]
    #: Number of admission waves the burst took (1 when every footprint was
    #: pairwise disjoint; overlapping footprints queue into later waves).
    waves: int
    #: Total shared delivery rounds across all waves (repair + background
    #: anti-entropy).
    rounds: int
    #: Per-victim reports in admission order (wave by wave).
    reports: List[DeletionCostReport] = field(default_factory=list)
    #: How many repairs each wave admitted, in order.
    wave_sizes: Tuple[int, ...] = ()

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the table reporters."""
        return {
            "victims": len(self.victims),
            "concurrency": self.concurrency if self.concurrency is not None else "inf",
            "waves": self.waves,
            "rounds": self.rounds,
            "messages": sum(r.messages for r in self.reports),
            "bits": sum(r.bits for r in self.reports),
            "dropped_messages": sum(r.dropped_messages for r in self.reports),
            "converged": all(r.converged for r in self.reports),
            "fixed_point_messages": max(
                (r.recovery.fixed_point_messages for r in self.reports if r.recovery),
                default=-1,
            ),
        }
