"""Workload generators: initial topologies for the experiments.

The paper's model starts from an arbitrary connected graph ``G_0``
(Section 2).  The generators here produce the topologies used throughout the
experiments — the adversarially bad cases (star, path) as well as the
peer-to-peer style topologies the introduction motivates (power-law,
Erdős–Rényi, random regular, grid, tree, ring).
"""

from .graphs import (
    GraphSpec,
    available_topologies,
    binary_tree_graph,
    erdos_renyi_graph,
    grid_graph,
    make_graph,
    path_graph,
    power_law_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
)

__all__ = [
    "GraphSpec",
    "available_topologies",
    "make_graph",
    "star_graph",
    "path_graph",
    "ring_graph",
    "grid_graph",
    "binary_tree_graph",
    "erdos_renyi_graph",
    "power_law_graph",
    "random_regular_graph",
]
