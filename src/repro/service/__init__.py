"""The long-lived healer service: durable churn, checkpoints, live metrics.

Everything else in the repository is batch — build a graph, run an attack,
exit.  This package runs the distributed Forgiving Graph as a *service*:
:class:`HealerDaemon` accepts concurrent churn streams through
:class:`ServiceClient` handles, journals every operation durably before
acknowledging it, applies deletions through the PR 8 ``delete_batch``
admission path, checkpoints the full distributed state to sqlite
(:mod:`repro.service.store`), and exposes live repair-latency percentiles,
recovery costs and store sizes over a JSON status endpoint
(:mod:`repro.service.metrics`).  The typed configuration surface
(:class:`ServiceConfig`, composing :class:`~repro.generators.graphs.GraphSpec`
and :class:`~repro.distributed.faults.FaultSpec`) is JSON-round-trippable
and persisted in the store, so a restarted daemon reconstructs exactly the
configuration the crashed one ran.

Crash-recover is the point: ``kill -9`` mid-churn then
:meth:`HealerDaemon.restore` replays the journal around the last
checkpoint and certifies the result against the oracle, and
:meth:`HealerDaemon.rejoin_stale` restarts a repair participant from a
stale checkpoint image mid-repair — a digest divergence the PR 5 gossip
recovery heals with real retransmissions.  ``scripts/healerd.py`` is the
process entry point; ``examples/service_demo.py`` walks the whole story.
"""

from .config import ServiceConfig
from .daemon import HealerDaemon, RejoinReport, RestartReport, ServiceClient
from .metrics import ServiceMetrics, StatusServer
from .store import CheckpointStore, CheckpointInfo, JournalOp, SCHEMA_VERSION

__all__ = [
    "ServiceConfig",
    "HealerDaemon",
    "ServiceClient",
    "RestartReport",
    "RejoinReport",
    "ServiceMetrics",
    "StatusServer",
    "CheckpointStore",
    "CheckpointInfo",
    "JournalOp",
    "SCHEMA_VERSION",
]
