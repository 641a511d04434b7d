"""Ablation baseline: reconstruction trees without the haft Merge step.

The Forgiving Graph's central design choice is that the reconstruction trees
of successive deletions *merge* (via Strip/Merge on half-full trees), so a
processor ends up simulating at most one helper node per ``G'`` edge no
matter how long the attack lasts.  This ablation removes exactly that step:
every deletion builds a fresh balanced binary tree over the victim's current
neighbours in the healed graph, with internal positions assigned to
least-loaded neighbours, and never merges it with the structures left by
earlier deletions.

Under a sustained targeted attack the same survivors keep being drafted as
internal nodes of new trees, so their degree grows with the length of the
attack instead of staying within a constant factor —
``tests/test_ablation_unmerged_rt.py`` and the E9 comparison show the gap.
This isolates the contribution of the haft-merge machinery, which is the
ablation DESIGN.md calls out.
"""

from __future__ import annotations

from typing import Dict, List

from ..core.ports import NodeId
from .base import SelfHealer

__all__ = ["UnmergedRTHealing"]


class UnmergedRTHealing(SelfHealer):
    """Balanced-binary-tree repair over healed-graph neighbours, without merging."""

    name = "unmerged_rt"

    def __init__(self) -> None:
        super().__init__()
        #: How many internal (virtual) positions each node currently plays.
        self._load: Dict[NodeId, int] = {}

    def _heal(self, deleted: NodeId, neighbors: List[NodeId]) -> None:
        self._load.pop(deleted, None)
        if len(neighbors) < 2:
            return
        # Internal positions go to the least-loaded neighbours; each position
        # connects the representatives of the two subtrees it joins.  Unlike
        # the Forgiving Graph there is no notion of ports or representatives
        # carried over from earlier repairs, so load accumulates.
        pool = sorted(neighbors, key=lambda v: (self._load.get(v, 0), repr(v)))
        pool_index = 0

        def next_simulator() -> NodeId:
            nonlocal pool_index
            simulator = pool[pool_index % len(pool)]
            pool_index += 1
            self._load[simulator] = self._load.get(simulator, 0) + 1
            return simulator

        level: List[NodeId] = list(neighbors)
        while len(level) > 1:
            next_level: List[NodeId] = []
            for i in range(0, len(level) - 1, 2):
                left, right = level[i], level[i + 1]
                simulator = next_simulator()
                self._add_healing_edge(simulator, left)
                self._add_healing_edge(simulator, right)
                next_level.append(simulator)
            if len(level) % 2 == 1:
                next_level.append(level[-1])
            level = next_level
