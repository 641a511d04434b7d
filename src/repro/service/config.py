"""Typed configuration for the long-lived healer service.

:class:`ServiceConfig` is the top of the typed-config stack introduced by
the api_redesign: it composes a :class:`~repro.generators.graphs.GraphSpec`
(the genesis topology), a :class:`~repro.baselines.HealerSpec` (which
healer, with which options) and a :class:`~repro.distributed.faults
.FaultSpec` (the network conditions) into one frozen, JSON-round-trippable
value.  The service persists it in the checkpoint store's ``meta`` table,
so a restarted daemon reconstructs *exactly* the configuration the crashed
one ran — which is why every axis here must be declarative: explicit
:class:`FaultSchedule` objects carry live RNG state and are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from ..baselines.spec import DISTRIBUTED_HEALERS, HealerSpec
from ..core.errors import ConfigurationError
from ..distributed.faults import BYZANTINE_PRESETS, DELIVERY_PRESETS, FaultSchedule, FaultSpec
from ..generators.graphs import GraphSpec, available_topologies

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a healer daemon needs to run (and re-run after a crash).

    Parameters
    ----------
    graph:
        The genesis topology spec (built once, at first start; restarts
        load the genesis from the store instead of rebuilding).
    healer:
        The healer to run.  The service drives ``delete_batch`` waves and
        the digest-recovery rejoin path, so only healers in
        :data:`~repro.baselines.DISTRIBUTED_HEALERS` are legal.
    fault:
        Declarative fault axis — anything :meth:`FaultSpec.parse` accepts
        *except* an explicit ``FaultSchedule`` (live RNG state does not
        survive a crash, so the service only accepts preset specs it can
        persist and re-materialize deterministically) and except the
        byzantine presets (restore certification compares against the
        engine oracle, which a quarantined liar diverges from by design),
        i.e. one of :data:`~repro.distributed.faults.DELIVERY_PRESETS`.
    seed:
        Master seed: genesis build, fault materialization and the demo
        churn generators all derive from it.
    checkpoint_every:
        Checkpoint cadence in *applied operations*; the daemon writes a
        checkpoint whenever this many ops have been applied since the last
        one (0 disables periodic checkpoints — only explicit calls write).
    batch_window:
        Admission window: up to this many consecutive journalled deletions
        are grouped into one ``delete_batch`` call.  Every window, even a
        one-victim one, heals as a wave with background recovery.
    latency_window:
        Ring-buffer depth of the live repair-latency percentile tracker.
    """

    graph: GraphSpec = field(default_factory=lambda: GraphSpec("erdos_renyi", 48))
    healer: HealerSpec = field(
        default_factory=lambda: HealerSpec("distributed_forgiving_graph")
    )
    fault: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 0
    checkpoint_every: int = 16
    batch_window: int = 4
    latency_window: int = 256

    def __init__(
        self,
        graph: Optional[GraphSpec] = None,
        healer: Union[None, str, HealerSpec] = None,
        fault: Union[None, str, FaultSpec, FaultSchedule] = None,
        seed: int = 0,
        checkpoint_every: int = 16,
        batch_window: int = 4,
        latency_window: int = 256,
    ) -> None:
        graph = graph if graph is not None else GraphSpec("erdos_renyi", 48)
        if graph.topology not in available_topologies():
            raise ConfigurationError(
                f"unknown topology {graph.topology!r}; available: {available_topologies()}"
            )
        if isinstance(healer, str):
            healer = HealerSpec(healer)
        elif healer is None:
            healer = HealerSpec("distributed_forgiving_graph")
        if healer.name not in DISTRIBUTED_HEALERS:
            raise ConfigurationError(
                f"the healer service drives delete_batch waves and digest "
                f"recovery; healer {healer.name!r} has no network — use one "
                f"of {sorted(DISTRIBUTED_HEALERS)}"
            )
        try:
            fault_spec = FaultSpec.parse(fault, seed=seed)
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(str(exc)) from None
        if fault_spec.schedule is not None:
            raise ConfigurationError(
                "ServiceConfig requires a declarative fault axis (preset + "
                "seed): an explicit FaultSchedule carries live RNG state "
                "that cannot be persisted across a crash"
            )
        if fault_spec.preset in BYZANTINE_PRESETS:
            raise ConfigurationError(
                f"fault preset {fault_spec.preset!r} quarantines liars, so the "
                "healed graph diverges from the oracle that restore "
                "certification compares against; use one of "
                f"{sorted(DELIVERY_PRESETS)}"
            )
        # The healer spec's own fault axis must not compete with the
        # service-level one; the service owns materialization.
        if not healer.fault.is_lossless:
            raise ConfigurationError(
                "pass the fault axis through ServiceConfig(fault=...), not "
                "through the healer spec — the service persists and "
                "re-materializes it on restart"
            )
        if checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if batch_window < 1:
            raise ConfigurationError("batch_window must be >= 1")
        if latency_window < 1:
            raise ConfigurationError("latency_window must be >= 1")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "healer", healer)
        object.__setattr__(self, "fault", fault_spec)
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "checkpoint_every", int(checkpoint_every))
        object.__setattr__(self, "batch_window", int(batch_window))
        object.__setattr__(self, "latency_window", int(latency_window))

    # ------------------------------------------------------------------ #
    # serialization (persisted in the store's meta table)
    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, Any]:
        return {
            "graph": {
                "topology": self.graph.topology,
                "n": self.graph.n,
                "params": dict(self.graph.params),
            },
            "healer": self.healer.to_json(),
            "fault": self.fault.to_json(),
            "seed": self.seed,
            "checkpoint_every": self.checkpoint_every,
            "batch_window": self.batch_window,
            "latency_window": self.latency_window,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "ServiceConfig":
        graph_payload = payload["graph"]
        return cls(
            graph=GraphSpec(
                topology=str(graph_payload["topology"]),
                n=int(graph_payload["n"]),
                params=dict(graph_payload.get("params") or {}),
            ),
            healer=HealerSpec.from_json(payload["healer"]),
            fault=FaultSpec.from_json(payload["fault"]),
            seed=int(payload.get("seed", 0)),
            checkpoint_every=int(payload.get("checkpoint_every", 16)),
            batch_window=int(payload.get("batch_window", 4)),
            latency_window=int(payload.get("latency_window", 256)),
        )

    def describe(self) -> str:
        return (
            f"{self.graph.label()}/{self.healer.describe()}"
            f"/fault={self.fault.describe()}/seed={self.seed}"
        )
