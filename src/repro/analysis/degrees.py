"""Degree-increase measurements (Theorem 1.1 / success metric 1 of Figure 1).

The paper's first success metric is ``max_v deg(v, G_T) / deg(v, G'_T)``: how
much healing has inflated any node's degree relative to the insertion-only
graph.  These helpers compute the per-node ratios and the aggregate report
from any healer exposing the shared protocol (``actual_graph`` /
``g_prime_view`` / ``alive_nodes``).  The per-node ratios read zero-copy
views (:mod:`repro.core.views`); the aggregate report reads both graphs'
degrees off a CSR snapshot (:mod:`repro.analysis.fastpaths`), so a
:func:`repro.analysis.guarantee_report` takes it off the snapshot its
stretch and connectivity use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.ports import NodeId
from ..core.views import healer_views
from .fastpaths import HealerSnapshot, snapshot_healer

__all__ = ["per_node_degree_factors", "degree_increase_factor", "degree_report", "DegreeReport"]


def per_node_degree_factors(healer) -> Dict[NodeId, float]:
    """Return ``deg(v, healed) / deg(v, G')`` for every alive node with ``G'`` degree > 0."""
    g_prime, actual = healer_views(healer)
    factors: Dict[NodeId, float] = {}
    for node in healer.alive_nodes:
        d_prime = g_prime.degree[node] if node in g_prime else 0
        if d_prime == 0:
            continue
        d_actual = actual.degree[node] if node in actual else 0
        factors[node] = d_actual / d_prime
    return factors


def degree_increase_factor(healer) -> float:
    """The paper's degree metric: the worst per-node ratio (0.0 for an empty graph)."""
    factors = per_node_degree_factors(healer)
    return max(factors.values()) if factors else 0.0


@dataclass
class DegreeReport:
    """Aggregate degree statistics for one healer state."""

    max_factor: float
    mean_factor: float
    max_actual_degree: int
    max_g_prime_degree: int
    num_nodes: int

    def as_row(self) -> Dict[str, float]:
        """Flatten to a dict for the table reporters."""
        return {
            "degree_factor_max": round(self.max_factor, 4),
            "degree_factor_mean": round(self.mean_factor, 4),
            "max_degree_healed": self.max_actual_degree,
            "max_degree_g_prime": self.max_g_prime_degree,
            "alive_nodes": self.num_nodes,
        }


def degree_report(healer, snapshot: Optional[HealerSnapshot] = None) -> DegreeReport:
    """Compute a :class:`DegreeReport` for the healer's current state.

    Degrees come from the CSR rows of ``snapshot`` (taken here when not
    given) under its alive mask: a node absent from a graph has an empty
    row, so its degree there reads 0, as in :func:`per_node_degree_factors`.
    """
    snap = snapshot if snapshot is not None else snapshot_healer(healer)
    actual = snap.actual.degrees()[snap.alive_mask]
    g_prime = snap.g_prime.degrees()[snap.alive_mask]
    based = g_prime > 0
    factors = actual[based] / g_prime[based]
    return DegreeReport(
        max_factor=float(factors.max()) if factors.size else 0.0,
        mean_factor=float(factors.mean()) if factors.size else 0.0,
        max_actual_degree=int(actual.max()) if actual.size else 0,
        max_g_prime_degree=int(g_prime.max()) if g_prime.size else 0,
        num_nodes=snap.num_alive,
    )
