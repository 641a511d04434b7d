"""CSR-based fast paths for the measurement hot loops.

The networkx graphs kept by the healers are dict-of-dicts: ideal for the
incremental updates of the engine, terrible for the measurement loops that
dominate experiment wall-clock (BFS from hundreds of sources after every few
adversarial moves).  This module converts a healer's graphs into int-indexed
CSR adjacency arrays once per measurement and runs the distance and
connectivity primitives on numpy: distances come from a batched *bitset* BFS
(all sources advance together, 64 per machine word), components from scipy
``csgraph``.

Key pieces
----------
:class:`NodeIndex`
    A stable, grow-only mapping from node identifiers to dense integers.
    Reusing one index across the many measurements of an attack (via
    :class:`MeasurementSession`) means node labels are translated once, not
    once per step.

:class:`CSRGraph`
    Frozen CSR adjacency (``indptr`` / ``indices``) over a :class:`NodeIndex`,
    with BFS distances and connected-component labels.

:class:`HealerSnapshot` / :class:`MeasurementSession`
    One measurement's view of a healer — ``G'`` and healed ``G`` as CSR over
    a shared index plus the alive mask — and the cross-step cache that
    produces them.

"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Sequence

import networkx as nx
import numpy as np
from scipy.sparse import csgraph, csr_matrix

from ..core.ports import NodeId, sorted_nodes
from ..core.views import actual_view_of, healer_views

__all__ = [
    "NodeIndex",
    "CSRGraph",
    "HealerSnapshot",
    "MeasurementSession",
    "snapshot_healer",
]


class NodeIndex:
    """Grow-only bijection between node identifiers and dense ``0..n-1`` ints.

    Nodes are assigned integers in first-seen order and never re-assigned, so
    an index built at step ``t`` remains valid at every later step of the same
    attack (healers never re-use identifiers).
    """

    __slots__ = ("_index", "_nodes")

    def __init__(self) -> None:
        self._index: Dict[NodeId, int] = {}
        self._nodes: List[NodeId] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._index

    def extend(self, nodes: Iterable[NodeId]) -> None:
        """Assign integers to any not-yet-seen nodes, in iteration order."""
        index = self._index
        store = self._nodes
        for node in nodes:
            if node not in index:
                index[node] = len(store)
                store.append(node)

    def indices_of(self, nodes: Sequence[NodeId]) -> np.ndarray:
        """Vector of dense integers for ``nodes``."""
        index = self._index
        return np.fromiter((index[n] for n in nodes), dtype=np.int64, count=len(nodes))

    def mask_of(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """Boolean mask over the index with True at each of ``nodes``."""
        mask = np.zeros(len(self._nodes), dtype=bool)
        index = self._index
        for node in nodes:
            mask[index[node]] = True
        return mask


@dataclass
class CSRGraph:
    """Frozen CSR adjacency of an undirected graph over ``num_nodes`` dense ids."""

    indptr: np.ndarray
    indices: np.ndarray
    num_nodes: int
    _components: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_graph(cls, graph: nx.Graph, index: NodeIndex) -> "CSRGraph":
        """Build the CSR arrays for ``graph`` using the dense ids of ``index``.

        Every node of ``graph`` must be in the index; nodes of the index
        absent from ``graph`` become isolated rows, so snapshots of the
        healed graph (alive nodes only) and of ``G'`` (all nodes ever) can
        share one index.  Each edge ``(u, v)`` is stored as row ``u`` -> ``v``
        and row ``v`` -> ``u``, in ``graph.edges`` order.  The edges come from
        one walk of ``graph.adjacency()``, which lists each edge from both
        ends and allocates nothing per edge; the end kept is the one
        ``graph.edges`` yields, whose neighbour comes at or after its owner
        in the graph's own node order (not the index's).
        """
        n = len(index)
        lookup = index._index.__getitem__
        adjacency = list(graph.adjacency())
        owners = np.fromiter(
            map(lookup, map(itemgetter(0), adjacency)), dtype=np.int64, count=len(adjacency)
        )
        neighbours = list(map(itemgetter(1), adjacency))
        degrees = np.fromiter(map(len, neighbours), dtype=np.int64, count=len(neighbours))
        ends = np.fromiter(
            map(lookup, chain.from_iterable(neighbours)), dtype=np.int64, count=int(degrees.sum())
        )
        starts = np.repeat(owners, degrees)
        position = np.zeros(n, dtype=np.int64)
        position[owners] = np.arange(owners.size)
        keep = position[ends] >= position[starts]
        tails, heads = starts[keep], ends[keep]
        rows = np.concatenate((tails, heads))
        cols = np.concatenate((heads, tails))
        counts = np.bincount(rows, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(rows, kind="stable")
        return cls(indptr=indptr, indices=cols[order], num_nodes=n)

    # ------------------------------------------------------------------ #
    # distances
    # ------------------------------------------------------------------ #
    def bfs_distances(self, sources: np.ndarray) -> np.ndarray:
        """Hop distances from each source: float array of shape (k, n), inf = unreachable.

        All ``k`` BFS runs advance together as one *bitset* BFS: each node
        carries a ``k``-bit word marking which sources have reached it, and a
        level expansion ORs the words of every node's neighbours (a gather
        plus one ``bitwise_or.reduceat`` over the CSR arrays).  The work per
        level is O(m * k / 64) machine words — for the source counts used by
        stretch measurements this outruns both per-source dict BFS and
        priority-queue shortest paths by a wide margin, with no scipy needed.
        """
        sources = np.atleast_1d(np.asarray(sources, dtype=np.int64))
        n = self.num_nodes
        k = sources.size
        nnz = self.indices.size
        if k == 0 or nnz == 0:
            dist = np.full((k, n), np.inf)
            if k:
                dist[np.arange(k), sources] = 0.0
            return dist

        words = (k + 63) // 64
        reached = np.zeros((n, words), dtype=np.uint64)
        bit = np.uint64(1) << (np.arange(k, dtype=np.uint64) & np.uint64(63))
        np.bitwise_or.at(reached, (sources, np.arange(k) >> 6), bit)
        frontier = reached.copy()

        def unpack(packed: np.ndarray) -> np.ndarray:
            return np.unpackbits(packed.view(np.uint8), axis=1, bitorder="little", count=k)

        # reduceat segment starts; rows with indptr[i] == nnz (trailing empty
        # rows) reduce over the all-zero sentinel appended to the gather
        # buffer, and interior empty rows are zeroed explicitly (reduceat
        # yields a[start] for an empty segment).
        row_starts = self.indptr[:-1]
        empty_rows = np.diff(self.indptr) == 0
        any_empty = bool(empty_rows.any())
        gathered = np.zeros((nnz + 1, words), dtype=np.uint64)
        # Distances accumulate implicitly: at every level each still-unreached
        # (node, source) pair gains +1, so a pair first reached at level L has
        # been counted exactly L times (pairs never reached are fixed up to
        # inf at the end).  This keeps the per-level work to pure SIMD-friendly
        # unpack/add passes — no index extraction in the loop.
        hops = np.zeros((n, k), dtype=np.uint32)
        while True:
            gathered[:nnz] = frontier[self.indices]
            candidate = np.bitwise_or.reduceat(gathered, row_starts, axis=0)
            if any_empty:
                candidate[empty_rows] = 0
            fresh = candidate & ~reached
            if not fresh.any():
                break
            hops += unpack(~reached)
            reached |= fresh
            frontier = fresh
        dist = hops.T.astype(np.float64)
        dist[unpack(reached).T == 0] = np.inf
        return dist

    # ------------------------------------------------------------------ #
    # connectivity
    # ------------------------------------------------------------------ #
    def component_labels(self) -> np.ndarray:
        """Connected-component label per dense id (isolated nodes get their own)."""
        if self._components is not None:
            return self._components
        matrix = csr_matrix(
            (np.ones(self.indices.size, dtype=np.int8), self.indices, self.indptr),
            shape=(self.num_nodes, self.num_nodes),
        )
        _, labels = csgraph.connected_components(matrix, directed=True, connection="weak")
        self._components = labels
        return labels

    def degrees(self) -> np.ndarray:
        """Degree per dense id."""
        return np.diff(self.indptr)


@dataclass
class HealerSnapshot:
    """One measurement's int-indexed view of a healer's graphs.

    ``g_prime`` and ``actual`` share ``index``: rows of dense ids beyond a
    graph's own nodes are isolated, so distances/labels line up elementwise.
    """

    index: NodeIndex
    g_prime: CSRGraph
    actual: CSRGraph
    alive_mask: np.ndarray
    alive_sorted: List[NodeId]

    @property
    def num_alive(self) -> int:
        return len(self.alive_sorted)


class MeasurementSession:
    """Reusable cross-step cache for measuring one healer through an attack.

    The session owns a :class:`NodeIndex` that only ever grows, so the
    expensive node-label translation is incremental across the dozens of
    snapshots taken during a sweep.  Create one per attack (the experiment
    runner does) and call :meth:`snapshot` whenever metrics are needed.

    ``G'`` is insertion-only and every insertion adds a node, so a healer's
    ``nodes_ever`` names its ``G'``.  The session keeps the last ``G'`` CSR
    it built, with the healer it came from, and hands it out again while
    that healer's ``nodes_ever`` and the index are unchanged: a deletions-only
    attack builds it once.
    """

    def __init__(self) -> None:
        self.index = NodeIndex()
        #: ``(healer, nodes_ever, CSR)`` of the last ``G'`` CSR built.
        self._g_prime: Optional[tuple] = None

    def snapshot(self, healer) -> HealerSnapshot:
        """Take a CSR snapshot of the healer's current ``G'`` / ``G`` state."""
        index = self.index
        nodes_ever = healer.nodes_ever
        cached = self._g_prime
        if (
            cached is not None
            and cached[0] is healer
            and cached[1] == nodes_ever
            and cached[2].num_nodes == len(index)
        ):
            g_prime = cached[2]
            actual = actual_view_of(healer)
        else:
            g_prime_graph, actual = healer_views(healer)
            index.extend(g_prime_graph.nodes)
            g_prime = CSRGraph.from_graph(g_prime_graph, index)
            self._g_prime = (healer, nodes_ever, g_prime)
        alive = healer.alive_nodes
        return HealerSnapshot(
            index=index,
            g_prime=g_prime,
            actual=CSRGraph.from_graph(actual, index),
            alive_mask=index.mask_of(alive),
            alive_sorted=sorted_nodes(alive),
        )


def snapshot_healer(healer, session: Optional[MeasurementSession] = None) -> HealerSnapshot:
    """Snapshot ``healer`` with ``session``'s cached index, or a throwaway one."""
    return (session if session is not None else MeasurementSession()).snapshot(healer)
