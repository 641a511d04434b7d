"""Initial-topology generators.

Every generator returns a connected :class:`networkx.Graph` with integer node
labels ``0 .. n-1`` so that experiments can insert fresh nodes with labels
``>= n`` without collisions.  Randomised generators accept either a seed or a
:class:`numpy.random.Generator` and are deterministic given the seed.

``power_law`` and ``erdos_renyi`` call no networkx generator: they draw
networkx's Barabási–Albert and G(n, p) streams, draw for draw, and write
the graph's rows through :func:`repro.core.graph_fill.fill_owned_graph`
instead of making one networkx call per edge or per new node.  The graphs
are networkx's, node, edge and row order included, which
``tests/test_generators.py`` pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Dict, Iterator, List, Tuple, Union

import networkx as nx
import numpy as np

from ..core.errors import ConfigurationError
from ..core.graph_fill import fill_owned_graph

__all__ = [
    "GraphSpec",
    "make_graph",
    "available_topologies",
    "star_graph",
    "path_graph",
    "ring_graph",
    "grid_graph",
    "binary_tree_graph",
    "erdos_renyi_graph",
    "gnp_random_graph",
    "power_law_graph",
    "random_regular_graph",
]

SeedLike = Union[int, np.random.Generator, None]


def _rng(seed: SeedLike) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _require_positive(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise ConfigurationError(f"graph size must be at least {minimum}, got {n}")


def star_graph(n: int, seed: SeedLike = None) -> nx.Graph:
    """Star on ``n`` nodes: node 0 is the hub (the Theorem 2 lower-bound topology)."""
    _require_positive(n, 2)
    return nx.star_graph(n - 1)


def path_graph(n: int, seed: SeedLike = None) -> nx.Graph:
    """Simple path ``0 - 1 - ... - n-1``; the worst case for naive clique healing."""
    _require_positive(n, 2)
    return nx.path_graph(n)


def ring_graph(n: int, seed: SeedLike = None) -> nx.Graph:
    """Cycle on ``n`` nodes."""
    _require_positive(n, 3)
    return nx.cycle_graph(n)


def grid_graph(n: int, seed: SeedLike = None) -> nx.Graph:
    """2-D grid with roughly ``n`` nodes (relabelled to consecutive integers)."""
    _require_positive(n, 4)
    side = max(2, int(round(np.sqrt(n))))
    grid = nx.grid_2d_graph(side, side)
    return nx.convert_node_labels_to_integers(grid, ordering="sorted")


def binary_tree_graph(n: int, seed: SeedLike = None) -> nx.Graph:
    """Complete-ish binary tree on ``n`` nodes (node 0 is the root)."""
    _require_positive(n, 2)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for child in range(1, n):
        graph.add_edge(child, (child - 1) // 2)
    return graph


def erdos_renyi_graph(n: int, seed: SeedLike = None, avg_degree: float = 6.0) -> nx.Graph:
    """Connected Erdős–Rényi graph with expected average degree ``avg_degree``.

    Disconnected samples are patched by linking each extra component to the
    giant component with one edge, which keeps the degree distribution
    essentially unchanged while honouring the paper's assumption that ``G_0``
    is connected.
    """
    _require_positive(n, 2)
    rng = _rng(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    graph = gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31 - 1)))
    return _ensure_connected(graph, rng)


#: Draws taken from the generator at a time (8 MiB of doubles).
_GNP_BLOCK = 1 << 20


def gnp_random_graph(n: int, p: float, seed: int) -> nx.Graph:
    """Exactly ``nx.gnp_random_graph(n, p, seed=seed)``, drawn in numpy blocks.

    networkx draws one ``random.Random(seed).random()`` per pair of
    ``itertools.combinations(range(n), 2)`` and adds the pair when the draw
    is below ``p``: one Python call per pair.  numpy's legacy
    ``RandomState`` runs the same MT19937 and builds each double from two
    words the same way, so loaded with the Python generator's state it
    yields the same draws.  The hits are written in pair order, so nodes,
    edges, every adjacency order and the one dict per node and per edge
    match networkx's.
    """
    if p >= 1:
        return nx.complete_graph(n)
    if p <= 0 or n < 2:
        return nx.empty_graph(n)
    _version, internal, _gauss = random.Random(seed).getstate()
    state = np.random.RandomState()
    state.set_state(("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1]))
    pairs = n * (n - 1) // 2
    hits = [
        np.flatnonzero(state.random_sample(min(_GNP_BLOCK, pairs - start)) < p) + start
        for start in range(0, pairs, _GNP_BLOCK)
    ]
    index = np.concatenate(hits)
    # Pair index -> (u, v): row u holds the n - 1 - u pairs (u, u + 1 .. n - 1).
    row_lengths = np.arange(n - 1, 0, -1)
    row_starts = np.cumsum(row_lengths) - row_lengths
    u = np.searchsorted(row_starts, index, side="right") - 1
    v = index - row_starts[u] + u + 1
    # Each end is the node's own int object, one per node, not one per end.
    nodes = np.array(range(n), dtype=object)
    graph = nx.Graph()
    fill_owned_graph(graph, nodes.tolist(), zip(nodes[u].tolist(), nodes[v].tolist()))
    return graph


def power_law_graph(n: int, seed: SeedLike = None, attachment: int = 3) -> nx.Graph:
    """Barabási–Albert preferential-attachment graph (power-law degrees).

    This is the canonical model of the peer-to-peer / infrastructure networks
    that motivate the paper, and the topology on which targeted (max-degree)
    attacks are most damaging.

    Exactly ``nx.barabasi_albert_graph(n, m, seed=s)`` for
    ``m = min(attachment, n - 1)`` and ``s`` drawn from ``seed``: the same
    initial star on nodes ``0 .. m``, the same ``random.Random(s).choice``
    calls and the same target sets, and the same layout (nodes in order,
    every adjacency row in edge order, one dict per node and one per edge),
    written row by row instead of through one networkx call per new node.
    A networkx release that changes its Barabási–Albert stream fails
    ``tests/test_generators.py``, as it would for :func:`gnp_random_graph`.
    """
    _require_positive(n, 3)
    if attachment < 1:
        raise ConfigurationError(f"power_law attachment must be at least 1, got {attachment}")
    m = min(attachment, n - 1)
    rng = _rng(seed)
    # One int object per node, held by its row and by every row it is in,
    # as in networkx's graph.
    nodes = list(range(n))
    graph = nx.Graph()
    fill_owned_graph(graph, nodes, _barabasi_albert_edges(nodes, m, int(rng.integers(0, 2**31 - 1))))
    return graph


def _barabasi_albert_edges(nodes: List[int], m: int, seed: int) -> Iterator[Tuple[int, int]]:
    """The edges ``nx.barabasi_albert_graph(len(nodes), m, seed=seed)`` adds, in its order.

    First the star from ``nodes[0]`` to ``nodes[1 .. m]``; then each later
    node ``source`` draws ``choice(repeated)`` until it holds ``m`` distinct
    targets (a set, iterated in the order networkx adds its edges), where
    ``repeated`` lists every node once per edge end it holds, in the order
    they were added.
    """
    choice = random.Random(seed).choice
    hub, star, later = nodes[0], nodes[1 : m + 1], nodes[m + 1 :]
    repeated = [hub] * m
    repeated += star
    ends = star.copy()
    for source in later:
        targets = set()
        while len(targets) < m:
            targets.add(choice(repeated))
        repeated += targets
        repeated += repeat(source, m)
        ends += targets
    starts = [hub] * m
    starts += chain.from_iterable(repeat(source, m) for source in later)
    return zip(starts, ends)


def random_regular_graph(n: int, seed: SeedLike = None, degree: int = 4) -> nx.Graph:
    """Connected random ``degree``-regular graph."""
    _require_positive(n, degree + 1)
    rng = _rng(seed)
    if (n * degree) % 2 == 1:
        n += 1
    graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(0, 2**31 - 1)))
    return _ensure_connected(graph, rng)


def _ensure_connected(graph: nx.Graph, rng: np.random.Generator) -> nx.Graph:
    if graph.number_of_nodes() == 0 or nx.is_connected(graph):
        return graph
    components = sorted(nx.connected_components(graph), key=len, reverse=True)
    anchor_pool = list(components[0])
    for component in components[1:]:
        u = list(component)[int(rng.integers(0, len(component)))]
        v = anchor_pool[int(rng.integers(0, len(anchor_pool)))]
        graph.add_edge(u, v)
        anchor_pool.extend(component)
    return graph


_TOPOLOGIES: Dict[str, Callable[..., nx.Graph]] = {
    "star": star_graph,
    "path": path_graph,
    "ring": ring_graph,
    "grid": grid_graph,
    "binary_tree": binary_tree_graph,
    "erdos_renyi": erdos_renyi_graph,
    "power_law": power_law_graph,
    "random_regular": random_regular_graph,
}


def available_topologies() -> list:
    """Names accepted by :func:`make_graph` (and the experiment configs)."""
    return sorted(_TOPOLOGIES)


@dataclass(frozen=True)
class GraphSpec:
    """Declarative description of an initial topology.

    Used by the experiment harness so that a whole sweep can be described as
    data (and recorded alongside its results).
    """

    topology: str
    n: int
    params: Dict[str, float] = field(default_factory=dict)

    def build(self, seed: SeedLike = None) -> nx.Graph:
        """Instantiate the topology."""
        return make_graph(self.topology, self.n, seed=seed, **self.params)

    def label(self) -> str:
        """Short human-readable label for tables."""
        return f"{self.topology}(n={self.n})"


def make_graph(topology: str, n: int, seed: SeedLike = None, **params) -> nx.Graph:
    """Build a named topology.

    Parameters
    ----------
    topology:
        One of :func:`available_topologies`.
    n:
        Target number of nodes.
    seed:
        Seed or generator for the randomised topologies.
    params:
        Extra keyword arguments forwarded to the generator
        (e.g. ``avg_degree`` for ``erdos_renyi``, ``attachment`` for
        ``power_law``, ``degree`` for ``random_regular``).
    """
    try:
        generator = _TOPOLOGIES[topology]
    except KeyError:
        raise ConfigurationError(
            f"unknown topology {topology!r}; available: {', '.join(available_topologies())}"
        ) from None
    return generator(n, seed=seed, **params)
