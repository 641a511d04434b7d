"""The layer boundaries the traced run records, and the per-layer metrics.

Each row names a layer ``<module>.<function>`` and the attribute to wrap.
Functions another module imported by name are wrapped where they are looked
up at call time (``plan_repair`` and ``execute_repair`` in the simulator's
namespace).  Layers every workload reaches report ``self_s``; the others
report ``calls`` and ``share`` only, because a time that is zero on every run
of a workload reads as unmeasured.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

from repro.adversary.schedule import AttackSchedule
from repro.adversary.strategies import MaxDegreeDeletion
from repro.analysis import invariants
from repro.core.forgiving_graph import ForgivingGraph
from repro.distributed import simulator
from repro.distributed.network import Network
from repro.distributed.recovery import BackgroundRecovery
from repro.distributed.simulator import DistributedForgivingGraph
from repro.generators import graphs
from repro.service.daemon import HealerDaemon
from repro.service.store import CheckpointStore

from spans import Tracer


class Layer(NamedTuple):
    name: str
    owner: object
    attr: str
    #: Reached by every workload, so it also reports ``self_s``.
    universal: bool
    before: Optional[Callable] = None
    after: Optional[Callable] = None


def _written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (Linux), else 0."""
    try:
        with open("/proc/self/io") as io:
            for line in io:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _store_layer(attr: str) -> Layer:
    name = f"store.{attr}"
    return Layer(
        name,
        CheckpointStore,
        attr,
        False,
        before=lambda _args: _written_bytes(),
        after=lambda _args, _result, before: {f"{name}.bytes": _written_bytes() - before},
    )


def _deliver_after(args, delivered, dropped_before) -> Dict[str, float]:
    return {
        "network.deliver_round.messages": delivered,
        "network.deliver_round.dropped": args[0].metrics.total_dropped - dropped_before,
    }


def _recovery_counts(prefix: str, reports) -> Dict[str, float]:
    counts = {f"{prefix}.sweeps": 0, f"{prefix}.digest_messages": 0, f"{prefix}.retransmissions": 0}
    for report in reports:
        counts[f"{prefix}.sweeps"] += report.sweeps
        counts[f"{prefix}.digest_messages"] += report.digest_messages
        counts[f"{prefix}.retransmissions"] += report.retransmissions
    return counts


def _delete_batch_after(_args, burst, _state) -> Dict[str, float]:
    counts = _recovery_counts(
        "recovery.BackgroundRecovery",
        [report.recovery for report in burst.reports if report.recovery is not None],
    )
    counts["simulator.delete_batch.waves"] = burst.waves
    counts["simulator.delete_batch.victims"] = len(burst.victims)
    return counts


LAYERS: List[Layer] = [
    Layer("generators.make_graph", graphs, "make_graph", True),
    Layer("simulator.from_graph", DistributedForgivingGraph, "from_graph", True),
    Layer("adversary.choose_victim", MaxDegreeDeletion, "choose_victim", False),
    Layer("adversary.burst_sample", AttackSchedule, "_play_burst", False),
    Layer("protocol.plan_repair", simulator, "plan_repair", True),
    Layer("forgiving_graph.delete", ForgivingGraph, "delete", True),
    Layer("forgiving_graph.insert", ForgivingGraph, "insert", False),
    Layer(
        "protocol.execute_repair", simulator, "execute_repair", False,
        after=lambda _args, rounds, _state: {"protocol.execute_repair.rounds": rounds},
    ),
    Layer("network.tick", Network, "tick", True),
    Layer(
        "network.deliver_round", Network, "deliver_round", True,
        before=lambda args: args[0].metrics.total_dropped, after=_deliver_after,
    ),
    Layer(
        "recovery.reconverge", DistributedForgivingGraph, "reconverge", False,
        after=lambda _args, report, _state: _recovery_counts("recovery.reconverge", [report]),
    ),
    Layer("recovery.BackgroundRecovery.step", BackgroundRecovery, "step", False),
    Layer(
        "simulator.delete_batch", DistributedForgivingGraph, "delete_batch", False,
        after=_delete_batch_after,
    ),
    Layer("simulator.delete", DistributedForgivingGraph, "delete", False),
    Layer("simulator.insert", DistributedForgivingGraph, "insert", False),
    Layer("invariants.guarantee_report", invariants, "guarantee_report", True),
    Layer("simulator.compact_journals", DistributedForgivingGraph, "compact_journals", False),
    Layer("simulator.network_graph", DistributedForgivingGraph, "network_graph", True),
    Layer("simulator.audit_reference", DistributedForgivingGraph, "audit_reference", True),
    Layer("simulator.verify_consistency", DistributedForgivingGraph, "verify_consistency", True),
    Layer("daemon.create", HealerDaemon, "create", False),
    Layer("daemon.submit", HealerDaemon, "submit", False),
    Layer("daemon.pump", HealerDaemon, "pump", False),
    Layer("daemon.restore", HealerDaemon, "restore", False),
    _store_layer("append_op"),
    _store_layer("mark_applied"),
    _store_layer("write_checkpoint"),
]

#: Counters summed over a traced pass, reported per pass (unit ``count``).
COUNTERS = [
    "protocol.execute_repair.rounds",
    "network.deliver_round.messages",
    "network.deliver_round.dropped",
    "recovery.reconverge.sweeps",
    "recovery.reconverge.digest_messages",
    "recovery.reconverge.retransmissions",
    "recovery.BackgroundRecovery.sweeps",
    "recovery.BackgroundRecovery.digest_messages",
    "recovery.BackgroundRecovery.retransmissions",
    "simulator.delete_batch.waves",
]
BYTE_COUNTERS = ["store.append_op.bytes", "store.mark_applied.bytes", "store.write_checkpoint.bytes"]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of :data:`LAYERS` on ``tracer``."""
    for layer in LAYERS:
        tracer.wrap(layer.owner, layer.attr, layer.name, before=layer.before, after=layer.after)


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer.name}.calls"] = "count"
        if layer.universal:
            units[f"{layer.name}.self_s"] = "s"
        units[f"{layer.name}.share"] = "%"
    for name in COUNTERS:
        units[name] = "count"
    for name in BYTE_COUNTERS:
        units[name] = "bytes"
    units["simulator.delete_batch.victims_per_wave"] = "ratio"
    units["recovery.reconverge.retransmit_ratio"] = "ratio"
    units["recovery.BackgroundRecovery.retransmit_ratio"] = "ratio"
    units["daemon.pump.queue_wait_pct"] = "%"
    units["run.trace_overhead_pct"] = "%"
    units["run.span_coverage_pct"] = "%"
    return units
