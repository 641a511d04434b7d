"""Accountable byzantine detection: transcripts, accusations and ground truth.

Byzantine payload faults (see :mod:`repro.distributed.faults`) make
processors *lie* — corrupt ``PieceSummary`` descriptors, doctored
``Digest`` chunks, equivocated ``HelperAssignment``\\ s.  Detection is
message-native: a processor accuses a peer only from messages it
physically received, and every accusation carries the evidence — the
conflicting message pair (or the single message whose seal/checksum does
not match its payload).  This module holds the two ledgers involved, with
a deliberate split mirroring the engine-oracle split of
:mod:`repro.distributed.simulator`:

* :class:`AccountabilityTranscript` — the **protocol-side** artifact.  It
  is built exclusively from received messages; nothing in it requires
  global knowledge.  In the spirit of pod-style accountable transcripts,
  any third party replaying the evidence pairs can re-derive each verdict.
* :class:`InjectionLog` — the **oracle-side** ground truth.  The fault
  layer records which lies it actually injected and who they reached, so
  experiments and tests can score the transcript (detection rate,
  false accusations, containment radius) without the protocol ever
  reading this log.

The measured quantities derived here:

* **containment radius** of a byzantine processor = how many distinct
  processors one of its corrupted payloads *reached* before (and
  including when) it was detected, i.e. ``len(touched[accused])``;
* **detection latency** = rounds between the first delivered lie and the
  first accusation naming that processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.ports import NodeId
from .messages import Message

__all__ = ["Accusation", "AccountabilityTranscript", "InjectionLog"]


@dataclass(frozen=True)
class Accusation:
    """One verdict: ``reporter`` names ``accused``, with message evidence.

    ``evidence`` is the message pair whose payloads contradict each other
    (equivocation / forgery caught by a cross-witness) or the single
    message whose seal or descriptor checksum fails verification
    (post-hoc payload corruption).  The messages are the protocol's proof:
    they were physically delivered to the reporter.
    """

    accused: NodeId
    reporter: NodeId
    reason: str
    evidence: Tuple[Message, ...]
    round: int

    def describe(self) -> str:
        kinds = ",".join(m.kind for m in self.evidence)
        return (
            f"round {self.round}: {self.reporter!r} accuses {self.accused!r}"
            f" ({self.reason}; evidence: {kinds})"
        )


@dataclass
class AccountabilityTranscript:
    """Protocol-side ledger of accusations, append-only during a run."""

    accusations: List[Accusation] = field(default_factory=list)
    first_accusation_round: Dict[NodeId, int] = field(default_factory=dict)
    _reporters: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)

    def record(
        self,
        *,
        accused: NodeId,
        reporter: NodeId,
        reason: str,
        evidence: Tuple[Message, ...],
        round: int,
    ) -> Accusation:
        accusation = Accusation(
            accused=accused,
            reporter=reporter,
            reason=reason,
            evidence=evidence,
            round=round,
        )
        self.accusations.append(accusation)
        self.first_accusation_round.setdefault(accused, round)
        self._reporters.setdefault(accused, set()).add(reporter)
        return accusation

    @property
    def accused(self) -> Set[NodeId]:
        return set(self.first_accusation_round)

    def reporters(self, accused: NodeId) -> Set[NodeId]:
        return set(self._reporters.get(accused, set()))

    def against(self, accused: NodeId) -> List[Accusation]:
        return [a for a in self.accusations if a.accused == accused]

    def __len__(self) -> int:
        return len(self.accusations)

    def __bool__(self) -> bool:
        # An empty transcript is still a transcript; truthiness follows
        # "has any accusation" for convenient `assert not transcript` checks.
        return bool(self.accusations)


@dataclass
class InjectionLog:
    """Oracle-side ground truth of injected lies; never read by protocol code.

    The fault layer (and byzantine processors' own forging hook) notes
    every corrupted payload it sends and every receiver such a payload
    actually reaches.  Tests and experiment rows compare the
    :class:`AccountabilityTranscript` against this log; the processors do
    not know it exists.
    """

    lies_sent: Dict[NodeId, int] = field(default_factory=dict)
    lies_delivered: Dict[NodeId, int] = field(default_factory=dict)
    touched: Dict[NodeId, Set[NodeId]] = field(default_factory=dict)
    first_lie_round: Dict[NodeId, int] = field(default_factory=dict)

    def note_sent(self, origin: NodeId, round: int) -> None:
        self.lies_sent[origin] = self.lies_sent.get(origin, 0) + 1
        self.first_lie_round.setdefault(origin, round)

    def note_delivered(self, origin: NodeId, receiver: NodeId) -> None:
        self.lies_delivered[origin] = self.lies_delivered.get(origin, 0) + 1
        self.touched.setdefault(origin, set()).add(receiver)

    @property
    def origins_with_delivered_lies(self) -> Set[NodeId]:
        return {origin for origin, count in self.lies_delivered.items() if count}

    @property
    def total_sent(self) -> int:
        return sum(self.lies_sent.values())

    @property
    def total_delivered(self) -> int:
        return sum(self.lies_delivered.values())

    def containment_radius(self, origin: NodeId) -> int:
        return len(self.touched.get(origin, set()))

    def detection_latency(
        self, origin: NodeId, transcript: "AccountabilityTranscript"
    ) -> Optional[int]:
        caught = transcript.first_accusation_round.get(origin)
        lied = self.first_lie_round.get(origin)
        if caught is None or lied is None:
            return None
        return max(0, caught - lied)
