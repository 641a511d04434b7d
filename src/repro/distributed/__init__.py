"""Distributed execution substrate for the Forgiving Graph.

The paper's algorithm is a distributed protocol: processors only know their
neighbours, react to deletions by exchanging messages, and the costs that
matter are the number of messages, their sizes and the number of parallel
communication rounds (Figure 1's success metrics 3 and 4, bounded by
Lemma 4).  This package provides

* :mod:`repro.distributed.messages` — the message vocabulary of the protocol,
* :mod:`repro.distributed.merge` — the message-native merge: piece
  descriptors that travel in messages, the read-only strip planner, and
  ``ComputeHaft`` on descriptors alone,
* :mod:`repro.distributed.network` — a synchronous round-based
  message-passing simulator with sourced links, repair scaffolding,
  optional fault injection and per-processor counters,
* :mod:`repro.distributed.faults` — seeded per-link drop/delay/reorder
  policies, the per-processor byzantine payload-corruption axis
  (:class:`ByzantinePolicy`), and the named presets shared by E11/E13,
  CI and the tests,
* :mod:`repro.distributed.accountability` — the protocol-side accusation
  transcript (who accused whom, with the conflicting message pair as
  evidence) and the oracle-side injection log it is scored against,
* :mod:`repro.distributed.processor` — per-processor state (one
  :class:`EdgeRecord` per ``G'`` edge with exactly the fields of Table 1)
  plus the reactive repair behaviour driven by received messages,
* :mod:`repro.distributed.protocol` — planning (each participant's
  pre-failure local knowledge) and the synchronous round loop
  (notification, BT_v formation, probing for primary roots, leader merge
  and dissemination),
* :mod:`repro.distributed.recovery` — the gossip-digest anti-entropy
  recovery: participants gossip compact digests of their own repair state
  and retransmit only what their neighbours' digests show missing, with
  its own :class:`RecoveryCostReport` cost ledger; the same protocol
  re-cut as the per-epoch :class:`BackgroundRecovery` state machine for
  concurrent bursts,
* :mod:`repro.distributed.simulator` — :class:`DistributedForgivingGraph`,
  a drop-in healer that runs every repair through the message-passing
  substrate, reports per-deletion communication costs, reconverges after
  injected faults, and heals deletion *bursts* concurrently
  (:meth:`~DistributedForgivingGraph.delete_batch`: disjoint-footprint
  waves of epoch-tagged repairs in one shared delivery stream, summarized
  per burst by :class:`BurstCostReport`).

The merge *and* the recovery are message-native: the healed structure is
decided by the merge leader from the descriptors that physically arrived
and applied by owners from the instructions they physically received — so
faulty links make processors disagree — and
:meth:`DistributedForgivingGraph.reconverge` heals the divergence with
digest gossip, never a global audit (the plan-based audit survives only as
the :meth:`~DistributedForgivingGraph.audit_reference` oracle).  The
centralized reference engine is an *oracle*: the tests in
``tests/test_distributed_*`` assert the message-built state converges to
it exactly.  Cost accounting stays O(repair) end to end (per-repair metrics
window, message-driven link sources, per-sweep digest budgets), within
Lemma 4's own asymptotics.

Detection of *byzantine* payload faults is message-native too (PR 6):
sealed message kinds and checksummed descriptors expose in-flight
tampering at ``receive()`` time, cross-witnessing exposes equivocation,
and every contradiction lands on the network's
:class:`AccountabilityTranscript` as an :class:`Accusation` naming the
liar — who is then quarantined (crash semantics) while recovery heals
around it.  The simulator threads the per-deletion deltas into each
:class:`DeletionCostReport` as a :class:`ByzantineReport` (containment
radius, detection latency, false-accusation count).
"""

from .accountability import Accusation, AccountabilityTranscript, InjectionLog
from .faults import (
    BYZANTINE_PRESETS,
    DELIVERY_PRESETS,
    FAULT_PRESETS,
    ByzantinePolicy,
    FaultSchedule,
    FaultSpec,
    LinkFaultPolicy,
    fault_schedule,
)
from .merge import MergeOutcome, PieceSummary, merge_summaries, plan_strip
from .messages import (
    AnchorLink,
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
from .metrics import (
    BurstCostReport,
    ByzantineReport,
    DeletionCostReport,
    MetricsWindow,
    NetworkMetrics,
    RecoveryCostReport,
    aggregate_byzantine,
)
from .network import Network
from .processor import EdgeRecord, Processor, RepairContext
from .recovery import BackgroundRecovery, run_recovery
from .simulator import DistributedForgivingGraph

__all__ = [
    "Message",
    "DeletionNotice",
    "InsertionNotice",
    "AnchorLink",
    "Probe",
    "PrimaryRootReport",
    "PrimaryRootList",
    "ParentUpdate",
    "HelperAssignment",
    "Digest",
    "DigestRequest",
    "PortDigest",
    "Network",
    "Processor",
    "EdgeRecord",
    "RepairContext",
    "NetworkMetrics",
    "MetricsWindow",
    "DeletionCostReport",
    "RecoveryCostReport",
    "BurstCostReport",
    "run_recovery",
    "BackgroundRecovery",
    "DistributedForgivingGraph",
    "FaultSchedule",
    "FaultSpec",
    "LinkFaultPolicy",
    "ByzantinePolicy",
    "fault_schedule",
    "FAULT_PRESETS",
    "DELIVERY_PRESETS",
    "BYZANTINE_PRESETS",
    "Accusation",
    "AccountabilityTranscript",
    "InjectionLog",
    "ByzantineReport",
    "aggregate_byzantine",
    "PieceSummary",
    "MergeOutcome",
    "merge_summaries",
    "plan_strip",
]
