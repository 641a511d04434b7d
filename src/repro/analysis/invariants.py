"""Healer-agnostic guarantee checks.

While :meth:`repro.core.ForgivingGraph.check_invariants` verifies the
*internal* structure of the Forgiving Graph (haft shape, representative
mechanism, Lemma 3), the checks here look only at the externally observable
graphs and therefore apply to every healer: does healing preserve
connectivity, and does the current state satisfy the degree and stretch
guarantees of Theorem 1?

Distance- and connectivity-heavy checks run on the CSR fast paths of
:mod:`repro.analysis.fastpaths`; :func:`guarantee_report` takes every metric
off a single int-indexed snapshot, and accepts a
:class:`~repro.analysis.fastpaths.MeasurementSession` so the node indexing
is reused across the many measurements of an attack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from .bounds import degree_bound, stretch_bound
from .degrees import degree_report
from .fastpaths import HealerSnapshot, MeasurementSession, snapshot_healer
from .stretch import stretch_report

__all__ = ["check_connectivity_preserved", "guarantee_report", "GuaranteeReport"]

SeedLike = Union[int, np.random.Generator, None]


def check_connectivity_preserved(healer, snapshot: Optional[HealerSnapshot] = None) -> bool:
    """True when every pair of alive nodes connected in ``G'`` is connected in the healed graph.

    This is the minimal promise of any self-healing algorithm: the adversary
    removed nodes, not the algorithm, so survivors that could still reach
    each other through the full history of insertions must remain mutually
    reachable after healing.

    The check compares connected-component labels of the two CSR snapshots:
    within every ``G'`` component, all alive nodes must carry the same healed
    component label.
    """
    snap = snapshot if snapshot is not None else snapshot_healer(healer)
    alive_idx = np.flatnonzero(snap.alive_mask)
    if alive_idx.size <= 1:
        return True
    g_prime_labels = snap.g_prime.component_labels()[alive_idx]
    actual_labels = snap.actual.component_labels()[alive_idx]
    order = np.argsort(g_prime_labels, kind="stable")
    gp = g_prime_labels[order]
    ac = actual_labels[order]
    same_group = gp[1:] == gp[:-1]
    return bool(np.all(ac[1:][same_group] == ac[:-1][same_group]))


@dataclass
class GuaranteeReport:
    """Theorem 1 compliance snapshot for one healer state."""

    healer_name: str
    n_ever: int
    alive: int
    degree_factor: float
    degree_bound: float
    stretch: float
    stretch_bound: float
    connected: bool

    @property
    def degree_ok(self) -> bool:
        """True when the measured degree factor is within the Theorem 1.1 bound."""
        return self.degree_factor <= self.degree_bound + 1e-9

    @property
    def stretch_ok(self) -> bool:
        """True when the measured stretch is within the Theorem 1.2 bound."""
        if math.isinf(self.stretch):
            return False
        return self.stretch <= max(self.stretch_bound, 1.0) + 1e-9

    def as_row(self) -> Dict[str, object]:
        """Flatten to a dict for the table reporters."""
        return {
            "healer": self.healer_name,
            "n_ever": self.n_ever,
            "alive": self.alive,
            "degree_factor": round(self.degree_factor, 3),
            "degree_bound": self.degree_bound,
            "degree_ok": self.degree_ok,
            "stretch": round(self.stretch, 3) if math.isfinite(self.stretch) else float("inf"),
            "stretch_bound": round(self.stretch_bound, 3),
            "stretch_ok": self.stretch_ok,
            "connected": self.connected,
        }


def guarantee_report(
    healer,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
    healer_name: Optional[str] = None,
    session: Optional[MeasurementSession] = None,
) -> GuaranteeReport:
    """Measure the Theorem 1 quantities for a healer's current state.

    ``max_sources`` limits the stretch computation to a sample of BFS
    sources (see :func:`repro.analysis.stretch.stretch_report`).  Degrees,
    stretch and connectivity are all taken off one CSR snapshot; pass a
    ``session`` to reuse its node indexing across repeated calls during an
    attack.
    """
    snap = snapshot_healer(healer, session)
    degrees = degree_report(healer, snapshot=snap)
    stretch = stretch_report(healer, max_sources=max_sources, seed=seed, snapshot=snap)
    name = healer_name if healer_name is not None else getattr(healer, "name", type(healer).__name__)
    return GuaranteeReport(
        healer_name=name,
        n_ever=healer.nodes_ever,
        alive=healer.num_alive,
        degree_factor=degrees.max_factor,
        degree_bound=degree_bound(),
        stretch=stretch.max_stretch,
        stretch_bound=stretch_bound(healer.nodes_ever),
        connected=check_connectivity_preserved(healer, snapshot=snap),
    )
