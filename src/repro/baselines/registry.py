"""Healer registry: every healer (Forgiving Graph or baseline) by name.

The experiment harness describes runs as data; this registry is the single
place that maps the string names used in experiment configurations and
benchmark tables onto healer classes.  Build healers through
:class:`~repro.baselines.HealerSpec`, which validates names against it.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..core.forgiving_graph import ForgivingGraph
from ..distributed.simulator import DistributedForgivingGraph
from .clique_heal import CliqueHealing
from .cycle_heal import CycleHealing
from .forgiving_tree import ForgivingTreeHealing
from .no_heal import NoHealing
from .surrogate_heal import SurrogateHealing
from .unmerged_rt import UnmergedRTHealing

__all__ = ["available_healers"]


_HEALERS: Dict[str, Callable[..., object]] = {
    "forgiving_graph": lambda graph, **options: ForgivingGraph.from_graph(graph, **options),
    "distributed_forgiving_graph": lambda graph, **options: DistributedForgivingGraph.from_graph(
        graph, **options
    ),
    "forgiving_tree": lambda graph, **options: ForgivingTreeHealing.from_graph(graph, **options),
    "no_heal": lambda graph, **options: NoHealing.from_graph(graph, **options),
    "cycle_heal": lambda graph, **options: CycleHealing.from_graph(graph, **options),
    "clique_heal": lambda graph, **options: CliqueHealing.from_graph(graph, **options),
    "surrogate_heal": lambda graph, **options: SurrogateHealing.from_graph(graph, **options),
    "unmerged_rt": lambda graph, **options: UnmergedRTHealing.from_graph(graph, **options),
}


def available_healers() -> List[str]:
    """Names accepted by :class:`~repro.baselines.HealerSpec`."""
    return sorted(_HEALERS)
