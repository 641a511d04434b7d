"""Baseline self-healing strategies.

The introduction of the paper positions the Forgiving Graph against two kinds
of alternatives: its predecessor, the *Forgiving Tree* (Hayes, Rustagi, Saia,
Trehan, PODC 2008), and naive healing rules that trade degree against
stretch in the wrong way.  This package implements those comparators behind
the same interface as :class:`repro.core.ForgivingGraph`, so that any
experiment can be re-run against any healer:

* :class:`NoHealing` — remove the node, add nothing (connectivity may break);
* :class:`CycleHealing` — wire the victim's neighbours into a cycle
  (degree +2, but stretch can grow linearly);
* :class:`CliqueHealing` — wire all neighbours pairwise (stretch stays tiny,
  degrees explode);
* :class:`SurrogateHealing` — connect every neighbour to one surrogate
  neighbour (a single node absorbs the whole degree hit);
* :class:`ForgivingTreeHealing` — the PODC'08 balanced-binary-tree repair;
* :class:`UnmergedRTHealing` — an *ablation* of the Forgiving Graph itself:
  reconstruction trees are built per deletion but never merged, isolating
  the contribution of the haft Strip/Merge machinery.

All of them answer to the duck-typed healer protocol used by the adversaries
and the experiment harness (``insert``, ``delete``, ``actual_graph``,
``g_prime_view``, ``alive_nodes`` ...).
"""

from .base import SelfHealer
from .clique_heal import CliqueHealing
from .cycle_heal import CycleHealing
from .forgiving_tree import ForgivingTreeHealing
from .no_heal import NoHealing
from .registry import available_healers
from .spec import DISTRIBUTED_HEALERS, HealerSpec
from .surrogate_heal import SurrogateHealing
from .unmerged_rt import UnmergedRTHealing

__all__ = [
    "SelfHealer",
    "NoHealing",
    "CycleHealing",
    "CliqueHealing",
    "SurrogateHealing",
    "ForgivingTreeHealing",
    "UnmergedRTHealing",
    "available_healers",
    "HealerSpec",
    "DISTRIBUTED_HEALERS",
]
