"""Stretch measurements (Theorem 1.2 / success metric 2 of Figure 1).

The stretch of a healed graph ``G_T`` relative to ``G'_T`` is::

    max over alive pairs x, y of   dist(x, y, G_T) / dist(x, y, G'_T)

Distances in ``G'`` may route through *deleted* nodes — that is what makes
the guarantee strong: the healed graph competes against a graph that never
lost anything.  Pairs disconnected in ``G'`` are ignored (their ratio is
undefined); pairs connected in ``G'`` but disconnected in the healed graph
give infinite stretch (only the no-healing baseline ever does this).

Exact stretch needs all-pairs shortest paths and is quadratic; for sweeps on
larger graphs :func:`stretch_report` samples source nodes (BFS from each
sampled source still gives the exact worst ratio over the sampled rows).

:func:`stretch_report` runs on the CSR fast paths of
:mod:`repro.analysis.fastpaths` — distances come from batched int-indexed
BFS rather than per-node dict BFS, and the node indexing can be shared
across the many measurements of one attack by passing a
:class:`~repro.analysis.fastpaths.MeasurementSession`.  The original
networkx implementation survives as :func:`stretch_report_reference`; the
equivalence tests assert both agree on every metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import networkx as nx
import numpy as np

from ..core.ports import NodeId, sorted_nodes
from ..core.views import healer_views
from .fastpaths import HealerSnapshot, MeasurementSession, snapshot_healer

__all__ = [
    "pairwise_stretch",
    "stretch_report",
    "stretch_report_reference",
    "StretchReport",
]

SeedLike = Union[int, np.random.Generator, None]

#: Sources per bitset-BFS batch; bounds the (sources x nodes) distance block
#: to a few MB even on the largest sweep graphs while keeping the bit-words
#: of the batched BFS well filled.
_SOURCE_BLOCK = 256


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def pairwise_stretch(healer, x: NodeId, y: NodeId) -> float:
    """Stretch of the single pair ``(x, y)``.

    Returns ``inf`` if the pair is connected in ``G'`` but not in the healed
    graph and ``nan`` if it is disconnected even in ``G'``.  Works on
    read-only views of the healer's graphs — a single-pair query never copies
    a full graph.
    """
    g_prime, actual = healer_views(healer)
    try:
        base = nx.shortest_path_length(g_prime, x, y)
    except nx.NetworkXNoPath:
        return float("nan")
    if base == 0:
        return 1.0
    try:
        healed = nx.shortest_path_length(actual, x, y)
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return float("inf")
    return healed / base


@dataclass
class StretchReport:
    """Aggregate stretch statistics for one healer state."""

    max_stretch: float
    mean_stretch: float
    pairs_measured: int
    disconnected_pairs: int
    #: The ``log2(n)`` bound of Theorem 1.2 for the current ``n`` (nodes ever seen).
    log_n_bound: float
    sampled: bool

    @property
    def within_bound(self) -> bool:
        """True when the measured worst stretch satisfies the Theorem 1.2 bound."""
        if math.isinf(self.max_stretch):
            return False
        return self.max_stretch <= max(self.log_n_bound, 1.0) + 1e-9

    def as_row(self) -> Dict[str, float]:
        """Flatten to a dict for the table reporters."""
        return {
            "stretch_max": round(self.max_stretch, 4) if math.isfinite(self.max_stretch) else float("inf"),
            "stretch_mean": round(self.mean_stretch, 4) if math.isfinite(self.mean_stretch) else float("inf"),
            "pairs": self.pairs_measured,
            "disconnected_pairs": self.disconnected_pairs,
            "log_n_bound": round(self.log_n_bound, 4),
            "within_bound": self.within_bound,
        }


def _empty_report(log_n_bound: float) -> StretchReport:
    return StretchReport(
        max_stretch=1.0,
        mean_stretch=1.0,
        pairs_measured=0,
        disconnected_pairs=0,
        log_n_bound=log_n_bound,
        sampled=False,
    )


def _pick_sources(
    alive: List[NodeId], max_sources: Optional[int], seed: SeedLike
) -> Tuple[List[NodeId], bool]:
    """The BFS sources: all alive nodes, or a seeded sample of ``max_sources``."""
    sampled = max_sources is not None and max_sources < len(alive)
    if not sampled:
        return alive, False
    rng = _rng(seed)
    picks = rng.choice(len(alive), size=max_sources, replace=False)
    return [alive[int(i)] for i in picks], True


def stretch_report(
    healer,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
    session: Optional[MeasurementSession] = None,
    snapshot: Optional[HealerSnapshot] = None,
) -> StretchReport:
    """Measure the stretch of the healer's current state.

    Parameters
    ----------
    healer:
        Any object with ``actual_graph`` / ``g_prime_view`` / ``alive_nodes``
        and ``nodes_ever`` (zero-copy ``actual_view`` / ``g_prime_graph_view``
        are used when present).
    max_sources:
        When given and smaller than the number of alive nodes, BFS is run
        only from this many sampled sources; the reported maximum is then a
        lower bound on the true maximum (adequate for sweeps, exact for
        tests that omit the parameter).
    seed:
        Seed for the source sampling.
    session:
        Optional :class:`MeasurementSession` whose node index is reused
        across calls (the experiment runner passes one per attack).
    snapshot:
        An already-taken :class:`HealerSnapshot` of ``healer``'s *current*
        state, when the caller measures several metrics off one snapshot.
    """
    n_ever = healer.nodes_ever
    log_n_bound = math.log2(n_ever) if n_ever > 1 else 1.0

    snap = snapshot if snapshot is not None else snapshot_healer(healer, session)
    alive = snap.alive_sorted
    if len(alive) < 2:
        return _empty_report(log_n_bound)

    sources, sampled = _pick_sources(alive, max_sources, seed)
    source_idx = snap.index.indices_of(sources)
    alive_mask = snap.alive_mask

    worst = 0.0
    total = 0.0
    pairs = 0
    disconnected = 0
    for start in range(0, source_idx.size, _SOURCE_BLOCK):
        block = source_idx[start : start + _SOURCE_BLOCK]
        base = snap.g_prime.bfs_distances(block)
        healed = snap.actual.bfs_distances(block)
        # A pair counts when the target is alive, differs from the source
        # (base > 0 covers that) and is reachable in G'.
        valid = alive_mask[np.newaxis, :] & np.isfinite(base) & (base > 0)
        pairs += int(valid.sum())
        healed_valid = healed[valid]
        base_valid = base[valid]
        broken = np.isinf(healed_valid)
        disconnected += int(broken.sum())
        ratios = healed_valid[~broken] / base_valid[~broken]
        if ratios.size:
            worst = max(worst, float(ratios.max()))
            total += float(ratios.sum())
    if disconnected:
        worst = float("inf")

    finite_pairs = pairs - disconnected
    mean = (total / finite_pairs) if finite_pairs else (float("inf") if disconnected else 1.0)
    return StretchReport(
        max_stretch=worst if pairs else 1.0,
        mean_stretch=mean,
        pairs_measured=pairs,
        disconnected_pairs=disconnected,
        log_n_bound=log_n_bound,
        sampled=sampled,
    )


def stretch_report_reference(
    healer,
    max_sources: Optional[int] = None,
    seed: SeedLike = None,
) -> StretchReport:
    """The original dict-based networkx stretch measurement.

    Kept verbatim as the ground truth for :func:`stretch_report`: the
    equivalence tests (``tests/test_fastpaths.py``) run both over churned
    healers and assert identical metrics.
    """
    actual = healer.actual_graph()
    g_prime = healer.g_prime_view()
    alive: List[NodeId] = sorted_nodes(healer.alive_nodes)
    n_ever = healer.nodes_ever
    log_n_bound = math.log2(n_ever) if n_ever > 1 else 1.0

    if len(alive) < 2:
        return _empty_report(log_n_bound)

    sources, sampled = _pick_sources(alive, max_sources, seed)

    alive_set = set(alive)
    worst = 0.0
    total = 0.0
    pairs = 0
    disconnected = 0
    for source in sources:
        base_dist = nx.single_source_shortest_path_length(g_prime, source)
        healed_dist = (
            nx.single_source_shortest_path_length(actual, source) if source in actual else {}
        )
        for target, base in base_dist.items():
            if target == source or target not in alive_set or base == 0:
                continue
            healed = healed_dist.get(target)
            pairs += 1
            if healed is None:
                disconnected += 1
                worst = float("inf")
                continue
            ratio = healed / base
            worst = max(worst, ratio)
            total += ratio
    finite_pairs = pairs - disconnected
    mean = (total / finite_pairs) if finite_pairs else (float("inf") if disconnected else 1.0)
    return StretchReport(
        max_stretch=worst if pairs else 1.0,
        mean_stretch=mean,
        pairs_measured=pairs,
        disconnected_pairs=disconnected,
        log_n_bound=log_n_bound,
        sampled=sampled,
    )
