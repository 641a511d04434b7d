"""The Forgiving Tree baseline (Hayes, Rustagi, Saia, Trehan, PODC 2008).

The Forgiving Tree is the predecessor of the Forgiving Graph: it maintains a
*spanning tree* of the network and, when a node is deleted, splices a
balanced binary tree of the victim's tree-neighbours into the hole, with the
internal positions of that balanced tree simulated by the victim's children.
Its guarantees are

* degree increase bounded by a small *additive* constant (+3), and
* diameter increase bounded by a multiplicative ``O(log Delta)`` factor,

but — unlike the Forgiving Graph — it has no stretch guarantee relative to
``G'``, no support for adversarial insertions interleaved with deletions, and
it needs an initialization phase.  The comparison experiment (E9 in
DESIGN.md) reproduces exactly this qualitative gap.

Implementation notes (documented substitution)
-----------------------------------------------
The original Forgiving Tree is specified through per-node "wills" prepared
ahead of time; no public implementation exists.  This baseline reproduces
its healing rule at the graph level:

* a spanning tree of the initial network is maintained (BFS tree per
  connected component); inserted nodes attach to the tree through their
  first attachment edge;
* when a node dies, its tree-neighbours are re-joined by a balanced binary
  tree; the internal positions are assigned to tree-neighbours that do not
  yet hold a helper role (falling back to the least-loaded neighbour when
  all of them already do, at which point the additive bound can degrade —
  the original avoids this with the will/heir machinery);
* the healed graph exposed to the experiments is the union of the surviving
  ``G'`` edges and the tree-repair edges, exactly like every other healer.

This preserves the behaviour the comparison cares about (small degree
overhead, compounding local distance blow-up, no ``G'``-stretch guarantee)
without reproducing the full will bookkeeping.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import networkx as nx

from ..core.ports import NodeId
from .base import SelfHealer

__all__ = ["ForgivingTreeHealing"]


class ForgivingTreeHealing(SelfHealer):
    """Spanning-tree self-healing with balanced-binary-tree splicing."""

    name = "forgiving_tree"

    def __init__(self) -> None:
        super().__init__()
        #: The maintained spanning forest (a subgraph of the healed graph).
        self._tree = nx.Graph()
        #: Helper-role counts: how many internal positions each node simulates.
        self._roles: Dict[NodeId, int] = {}
        self._tree_built = False
        self._pending_tree_neighbors: Optional[List[NodeId]] = None

    # ------------------------------------------------------------------ #
    # spanning-tree maintenance
    # ------------------------------------------------------------------ #
    def _ensure_tree(self) -> None:
        """Build the initial spanning forest lazily (the paper's preprocessing phase)."""
        if self._tree_built:
            return
        self._tree = nx.Graph()
        self._tree.add_nodes_from(self._actual.nodes)
        for component in nx.connected_components(self._actual):
            root = min(component, key=lambda n: (type(n).__name__, repr(n)))
            for u, v in nx.bfs_edges(self._actual, root):
                self._tree.add_edge(u, v)
        self._tree_built = True

    # ------------------------------------------------------------------ #
    # overridden operations
    # ------------------------------------------------------------------ #
    def insert(self, node: NodeId, attach_to: Sequence[NodeId] = ()) -> None:
        self._ensure_tree()
        super().insert(node, attach_to=attach_to)
        self._tree.add_node(node)
        attachments = [a for a in dict.fromkeys(attach_to)]
        if attachments:
            self._tree.add_edge(node, attachments[0])

    def delete(self, node: NodeId) -> None:
        self._ensure_tree()
        if node in self._tree:
            self._pending_tree_neighbors = sorted(
                self._tree.neighbors(node), key=lambda n: (type(n).__name__, repr(n))
            )
            self._tree.remove_node(node)
        else:
            self._pending_tree_neighbors = []
        self._roles.pop(node, None)
        super().delete(node)

    # ------------------------------------------------------------------ #
    # the Forgiving Tree repair
    # ------------------------------------------------------------------ #
    def _heal(self, deleted: NodeId, neighbors: List[NodeId]) -> None:
        tree_neighbors = self._pending_tree_neighbors or []
        self._pending_tree_neighbors = None
        if len(tree_neighbors) < 2:
            return

        # Pair the victim's tree-neighbours level by level, exactly like the
        # balanced Reconstruction Tree of the Forgiving Tree paper.  The
        # internal position created by joining a pair is played by whichever
        # of the two representatives holds fewer helper roles, so exactly one
        # repair edge is added per join, the spanning structure stays a tree,
        # and two former tree-neighbours end up at distance O(log d) of each
        # other.
        level: List[NodeId] = list(tree_neighbors)
        while len(level) > 1:
            next_level: List[NodeId] = []
            for i in range(0, len(level) - 1, 2):
                left, right = level[i], level[i + 1]
                simulator = min(
                    (left, right), key=lambda v: (self._roles.get(v, 0), repr(v))
                )
                self._add_tree_repair_edge(left, right)
                self._roles[simulator] = self._roles.get(simulator, 0) + 1
                next_level.append(simulator)
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            level = next_level

    def _add_tree_repair_edge(self, u: NodeId, v: NodeId) -> None:
        if u == v:
            return
        self._add_healing_edge(u, v)
        self._tree.add_edge(u, v)
