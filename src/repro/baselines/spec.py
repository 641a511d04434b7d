"""Typed healer construction: :class:`HealerSpec` replaces kwargs forwarding.

The registry's original surface was stringly typed: a healer name plus a
``**options`` bag forwarded blind to whatever constructor the name mapped
to, with the fault axis smuggled through as a pre-built ``fault_schedule``
keyword.  :class:`HealerSpec` is the typed replacement — a frozen value
that validates the name against the registry at construction time, carries
the fault axis as a declarative :class:`~repro.distributed.faults.FaultSpec`
(materialized per build, so RNG state is never shared between sessions),
and rejects fault injection on healers that cannot honour it *before* any
graph is copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

import networkx as nx

from ..core.errors import ConfigurationError
from ..distributed.faults import FaultSchedule, FaultSpec

__all__ = ["HealerSpec", "DISTRIBUTED_HEALERS"]

#: Registry names whose constructors understand ``fault_schedule=`` (the
#: message-passing substrate); every other healer is fault-oblivious and a
#: spec naming one with a non-lossless fault axis is rejected eagerly.
DISTRIBUTED_HEALERS = frozenset({"distributed_forgiving_graph"})


@dataclass(frozen=True)
class HealerSpec:
    """A validated, self-contained description of one healer instance.

    Parameters
    ----------
    name:
        Registry name (``repro.baselines.available_healers()`` lists them);
        unknown names raise :class:`~repro.core.errors.ConfigurationError`
        at spec construction, not at build time.
    options:
        Constructor keyword arguments (e.g. ``auto_reconverge=False`` or
        ``receive_trace_limit=16`` for the distributed healer).  Stored as a
        plain dict but treated as immutable; ``fault_schedule`` must travel
        through ``fault``, not here.
    fault:
        The fault axis as anything :meth:`FaultSpec.parse` accepts —
        ``None`` (lossless), a preset string, a ``FaultSchedule`` or a
        ``FaultSpec``.  Non-lossless axes are only legal for healers in
        :data:`DISTRIBUTED_HEALERS`.
    """

    name: str
    options: Dict[str, Any] = field(default_factory=dict)
    fault: FaultSpec = FaultSpec()

    def __init__(
        self,
        name: str,
        options: Optional[Mapping[str, Any]] = None,
        fault: Union[None, str, FaultSchedule, FaultSpec] = None,
    ) -> None:
        from .registry import _HEALERS, available_healers

        if name not in _HEALERS:
            raise ConfigurationError(
                f"unknown healer {name!r}; available: {', '.join(available_healers())}"
            )
        options = dict(options or {})
        if "fault_schedule" in options:
            raise ConfigurationError(
                "pass the fault axis through HealerSpec(fault=...), not "
                "options['fault_schedule'] — the spec owns materialization"
            )
        spec = FaultSpec.parse(fault)
        if not spec.is_lossless and name not in DISTRIBUTED_HEALERS:
            raise ConfigurationError(
                f"healer {name!r} runs on the abstract graph model and cannot "
                "honour a fault schedule; use 'distributed_forgiving_graph' "
                "for fault-injected runs"
            )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "fault", spec)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def build(self, graph: nx.Graph, seed: Optional[int] = None):
        """Instantiate the healer on a copy of ``graph``.

        The fault axis is materialized fresh for every build (seeded by the
        spec's own seed, else ``seed``), so two builds from one spec never
        share RNG state — the property the determinism tests pin.
        """
        from .registry import _HEALERS

        factory = _HEALERS[self.name]
        options = dict(self.options)
        schedule = self.fault.build(seed)
        if schedule is not None:
            options["fault_schedule"] = schedule
        return factory(graph.copy(), **options)

    def with_fault(self, fault: Union[None, str, FaultSchedule, FaultSpec]) -> "HealerSpec":
        """A copy of this spec with the fault axis replaced."""
        return HealerSpec(self.name, self.options, fault=fault)

    def with_options(self, **options: Any) -> "HealerSpec":
        """A copy of this spec with extra constructor options merged in."""
        merged = dict(self.options)
        merged.update(options)
        return HealerSpec(self.name, merged, fault=self.fault)

    # ------------------------------------------------------------------ #
    # serialization (the service persists its healer spec in the store)
    # ------------------------------------------------------------------ #
    def to_json(self) -> Dict[str, Any]:
        """Declarative form; raises when the fault axis is an explicit schedule."""
        return {
            "name": self.name,
            "options": dict(self.options),
            "fault": self.fault.to_json(),
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "HealerSpec":
        return cls(
            str(payload["name"]),
            payload.get("options") or {},
            fault=FaultSpec.from_json(payload.get("fault") or {"preset": "lossless"}),
        )

    def describe(self) -> str:
        parts = [self.name]
        if self.options:
            parts.append(",".join(f"{k}={v}" for k, v in sorted(self.options.items())))
        if not self.fault.is_lossless:
            parts.append(f"fault={self.fault.describe()}")
        return "/".join(parts)
