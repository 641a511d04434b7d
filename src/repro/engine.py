"""The unified attack-session engine.

Every workload in this repository — experiment runner, parameter sweeps,
the healer benchmark and the examples — is ultimately the same loop:
an adversary makes a move, the healer repairs, and the Theorem 1 quantities
are measured incrementally at some cadence.  :class:`AttackSession` owns that
loop once, so there is exactly one audited, fast path from an attack
description to measured guarantees:

* the *moves* come from an :class:`repro.adversary.AttackSchedule` consumed
  through its streaming :meth:`~repro.adversary.AttackSchedule.play`
  generator (one adversarial move per ``next()``),
* the *measurements* reuse one
  :class:`repro.analysis.MeasurementSession` across the whole attack, so the
  CSR node indexing is translated once and only extended as nodes appear,
* the *results* stream out as typed :class:`StepEvent` objects, so consumers
  can report incrementally (JSONL rows, live tables) or stop early without
  owning any stepping logic themselves.

Typical usage::

    from repro.engine import AttackSession
    from repro.adversary import churn_schedule

    session = AttackSession(healer, churn_schedule(steps=500, seed=7))
    for event in session.stream():          # streaming consumption
        if event.report is not None:
            print(event.step, event.report.stretch)
    result = session.result                 # peaks, final report, wall clock

or, when only the summary matters::

    result = AttackSession(healer, schedule).run()
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .adversary.schedule import AttackSchedule
from .analysis.fastpaths import MeasurementSession
from .analysis.invariants import GuaranteeReport, guarantee_report
from .core.ports import NodeId

__all__ = ["AttackSession", "SessionResult", "StepEvent"]

SeedLike = Union[int, np.random.Generator, None]


@dataclass
class StepEvent:
    """One adversarial move, after repair, as seen by session consumers."""

    step: int
    kind: str  # "insert" | "delete" | "burst_delete"
    node: NodeId
    #: Attachment points for insertions, empty for deletions.
    attached_to: Tuple[NodeId, ...]
    #: Degree of the victim in ``G'`` at deletion time (deletions only; the
    #: burst maximum for ``burst_delete``).
    victim_degree: int
    #: Cumulative move counters up to and including this step.
    deletions: int
    insertions: int
    #: The measurement taken after this move, when the session's cadence hit
    #: (``None`` for the steps in between).
    report: Optional[GuaranteeReport] = None
    #: Communication cost of this deletion's repair, when the healer accounts
    #: for it (the distributed healer's ``DeletionCostReport``; ``None`` for
    #: insertions and for healers without message accounting).  When the
    #: deletion ran under a fault schedule the report's ``recovery`` field
    #: carries the full gossip-digest ``RecoveryCostReport`` ledger, so
    #: stream consumers see digest/retransmission costs per move.  For a
    #: ``burst_delete`` this is the *first* victim's report; the full set is
    #: in ``cost_reports``.
    cost_report: Optional[object] = None
    #: Every victim of a ``burst_delete`` move (empty for single moves).
    victims: Tuple[NodeId, ...] = ()
    #: One ``DeletionCostReport`` per burst victim, in deletion order, when
    #: the healer accounts for repairs (empty otherwise).
    cost_reports: Tuple[object, ...] = ()


@dataclass
class SessionResult:
    """Summary of one completed attack session."""

    healer_name: str
    #: Theorem 1 compliance snapshot at the end of the attack (``None`` only
    #: when the session was created with ``measure_final=False``).
    final_report: Optional[GuaranteeReport]
    #: Worst values observed at *any* measurement point (the theorems are
    #: "at any time" statements, so the peak matters).
    peak_degree_factor: float
    peak_stretch: float
    deletions: int
    insertions: int
    steps: int
    wall_clock_seconds: float
    #: Per-measurement time series (kept only when ``track_series`` was set).
    series: List[Dict[str, float]] = field(default_factory=list)


class AttackSession:
    """Drive one healer through one attack schedule with periodic measurement.

    Parameters
    ----------
    healer:
        Anything satisfying the healer protocol (``ForgivingGraph`` or a
        baseline).
    schedule:
        The attack to play.
    healer_name:
        Label used in reports; defaults to the healer's class name.
    stretch_sources:
        BFS-source cap for the stretch measurement (None = exact).
    seed:
        Seed for the sampled-stretch source choice.
    measure_every:
        Measurement cadence in adversarial moves.  ``None`` (default) picks
        the automatic coarse interval ``max(steps // 8, 1)``; ``0`` disables
        periodic measurement entirely (consumers that measure themselves);
        any positive value is used as-is.
    measure_final:
        Take a final measurement when the schedule is exhausted (on by
        default; the final report is required for :attr:`SessionResult`).
    track_series:
        Keep a per-measurement time series in the result.
    cross_check_every:
        Oracle cross-check cadence, counted in *measurements*: every
        ``k``-th measurement tick additionally calls the healer's
        ``verify_consistency()`` (the distributed healer's O(n + m)
        oracle diff).  ``None`` (default) never cross-checks — the
        cadence-gated replacement for wiring ``verify_consistency`` into
        every repair, so large-n sessions pay the O(n + m) audit only on
        the measurement cadence they opted into; ``1`` checks at every
        measurement.  Healers without ``verify_consistency`` ignore the
        setting.
    """

    def __init__(
        self,
        healer,
        schedule: AttackSchedule,
        *,
        healer_name: Optional[str] = None,
        stretch_sources: Optional[int] = 48,
        seed: SeedLike = 0,
        measure_every: Optional[int] = None,
        measure_final: bool = True,
        track_series: bool = False,
        cross_check_every: Optional[int] = None,
    ) -> None:
        self.healer = healer
        self.schedule = schedule
        self.healer_name = (
            healer_name if healer_name is not None else getattr(healer, "name", type(healer).__name__)
        )
        self.stretch_sources = stretch_sources
        self.seed = seed
        if measure_every is None:
            self.interval = max(schedule.steps // 8, 1)
        else:
            self.interval = int(measure_every)
        self.measure_final = measure_final
        self.track_series = track_series
        self.cross_check_every = (
            None if cross_check_every is None else int(cross_check_every)
        )
        #: Measurement ticks taken so far (the cross-check cadence counter).
        self._measurements = 0
        #: Oracle cross-checks actually performed (inspectable by tests).
        self.cross_checks_run = 0
        #: One measurement session per attack: the CSR node indexing is built
        #: once and only extended as the adversary inserts nodes.
        self.measurement = MeasurementSession()
        self._peak_degree = 0.0
        self._peak_stretch = 0.0
        self._series: List[Dict[str, float]] = []
        self._deletions = 0
        self._insertions = 0
        self._steps = 0
        self._started = False
        self._start_time: Optional[float] = None
        self._result: Optional[SessionResult] = None

    # ------------------------------------------------------------------ #
    # measurement
    # ------------------------------------------------------------------ #
    def measure_now(self, step: Optional[int] = None) -> GuaranteeReport:
        """Measure the Theorem 1 quantities right now and fold them into the peaks."""
        report = guarantee_report(
            self.healer,
            max_sources=self.stretch_sources,
            seed=self.seed,
            healer_name=self.healer_name,
            session=self.measurement,
        )
        self.compact_journals()
        self._measurements += 1
        every = self.cross_check_every
        if every is not None and every > 0 and self._measurements % every == 0:
            # The opt-in oracle audit rides the measurement cadence: healers
            # exposing ``verify_consistency`` (the distributed simulator's
            # O(n + m) oracle diff) get cross-checked here instead of once
            # per repair, so the audit cost scales with measurements taken,
            # not with churn volume.
            verify = getattr(self.healer, "verify_consistency", None)
            if verify is not None:
                verify()
                self.cross_checks_run += 1
        self._peak_degree = max(self._peak_degree, report.degree_factor)
        self._peak_stretch = max(self._peak_stretch, report.stretch)
        if self.track_series:
            self._series.append(
                {
                    "step": self._steps if step is None else step,
                    "alive": report.alive,
                    "degree_factor": report.degree_factor,
                    "stretch": report.stretch,
                    "stretch_bound": report.stretch_bound,
                }
            )
        return report

    # ------------------------------------------------------------------ #
    # the step loop
    # ------------------------------------------------------------------ #
    def stream(self) -> Iterator[StepEvent]:
        """Play the attack, yielding one typed event per adversarial move.

        When the schedule is exhausted the final measurement is taken (unless
        disabled) and :attr:`result` becomes available.  The generator can be
        abandoned early; :attr:`result` then stays ``None`` and
        :meth:`finalize` can be called to close the books explicitly.

        A session is single-use: replaying the schedule would mutate the
        already-attacked healer a second time, so streaming again — whether
        the first stream finished or was abandoned — raises.
        """
        if self._started:
            raise RuntimeError(
                "AttackSession is single-use and this one has already streamed; "
                "create a new session to play another attack"
            )
        self._started = True
        self._start_time = start = time.perf_counter()
        for event in self.schedule.play(self.healer):
            self._steps += 1
            if event.kind == "delete":
                self._deletions += 1
            elif event.kind == "burst_delete":
                self._deletions += len(event.victims)
            else:
                self._insertions += 1
            report = None
            if self.interval > 0 and self._steps % self.interval == 0:
                report = self.measure_now(event.step)
            cost_report = None
            cost_reports: Tuple[object, ...] = ()
            if event.kind == "delete":
                # Healers with per-deletion communication accounting (the
                # distributed simulator) append one report per repair; attach
                # the one belonging to this move to its event.
                reports = getattr(self.healer, "cost_reports", None)
                if reports and reports[-1].deleted_node == event.node:
                    cost_report = reports[-1]
            elif event.kind == "burst_delete":
                # A burst appends one report per victim (in admission order,
                # which may differ from sampling order when overlapping
                # footprints serialize into waves); attach the whole tail.
                reports = getattr(self.healer, "cost_reports", None)
                tail = list(reports[-len(event.victims):]) if reports else []
                if {r.deleted_node for r in tail} == set(event.victims):
                    cost_reports = tuple(tail)
                    for candidate in tail:
                        if candidate.deleted_node == event.node:
                            cost_report = candidate
                            break
            yield StepEvent(
                step=event.step,
                kind=event.kind,
                node=event.node,
                attached_to=event.attached_to,
                victim_degree=event.victim_degree,
                deletions=self._deletions,
                insertions=self._insertions,
                report=report,
                cost_report=cost_report,
                victims=event.victims,
                cost_reports=cost_reports,
            )
        self.finalize(start=start)

    def compact_journals(self) -> Dict[str, int]:
        """Compact the healer's incremental journals (degree-touch, edge-delta).

        The journals are append-only per engine and would grow without bound
        over a long session; the session compacts them on its measurement
        cadence, so their retained size stays proportional to the interval
        between measurements, not to the attack length.  Registered consumers
        (the incremental adversaries) pin whatever they have not drained yet;
        healers without journals report nothing.
        """
        compact = getattr(self.healer, "compact_journals", None)
        if compact is None:
            return {}
        return compact()

    def finalize(self, start: Optional[float] = None) -> SessionResult:
        """Take the final measurement (if configured) and freeze the result."""
        if self._result is not None:
            return self._result
        final = self.measure_now() if self.measure_final else None
        self.compact_journals()
        if start is None:
            start = self._start_time  # early-exited stream: real elapsed time
        elapsed = (time.perf_counter() - start) if start is not None else 0.0
        self._result = SessionResult(
            healer_name=self.healer_name,
            final_report=final,
            peak_degree_factor=self._peak_degree,
            peak_stretch=self._peak_stretch,
            deletions=self._deletions,
            insertions=self._insertions,
            steps=self._steps,
            wall_clock_seconds=elapsed,
            series=self._series,
        )
        return self._result

    def run(self) -> SessionResult:
        """Play the whole attack to completion and return the summary."""
        for _ in self.stream():
            pass
        return self.result

    @property
    def result(self) -> Optional[SessionResult]:
        """The frozen summary (``None`` until the stream has been exhausted)."""
        return self._result
