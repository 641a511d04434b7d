"""The repair's retired twins, kept as references for the tests.

Each deletion's strip (FindPrRoots, Algorithms A.5–A.6) and its ComputeHaft
merge (Algorithm A.9) used to run twice per deletion on the centralized
side, once in the planner and once in the engine.  The code keeps one of
each: the engine's read-only survey (``ForgivingGraph.survey``) and one
merge order (``reconstruction_tree.merge_order``).  The versions they
replaced live on here, unchanged in substance, so the tests can check the
survivors against them:

* :func:`compute_haft_scan` — ComputeHaft over a sorted forest of
  ``(key, tree)`` pairs, scanned for equal-sized neighbours, each new helper
  put back in place with ``bisect.insort``;
* :func:`affected_rt_nodes` — the planner's walk of a victim's ``G'``
  neighbours for the RTs it breaks and its RT nodes in each;
* :func:`plan_strip_walk` — the planner's own read-only strip walk of one
  affected RT, laid out as the processors' knowledge (a ``StripPlan``).

(Tests import it as ``from reference_twins import ...``; pytest puts
``tests/`` on the path.)
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Container, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.errors import InvariantViolationError, UnknownNodeError
from repro.core.ports import NodeId, Port, port_order_key
from repro.core.reconstruction_tree import (
    ReconstructionTree,
    RTHelper,
    RTLeaf,
    RTNode,
    representative_of,
)
from repro.distributed.merge import StripPlan, link_source_key, summary_of

_forest_key = itemgetter(0)


def compute_haft_scan(
    complete_roots: Sequence[RTNode],
    busy_ports: Optional[Container[Port]] = None,
) -> Tuple[RTNode, List[RTHelper]]:
    """ComputeHaft as a scan over the sorted forest (the retired engine merge)."""
    if not complete_roots:
        raise ValueError("compute_haft() requires at least one complete tree")
    busy: Container[Port] = busy_ports if busy_ports is not None else ()
    claimed: Set[Port] = set()
    new_helpers: List[RTHelper] = []

    def make_helper(simulating_rep: RTLeaf, inherited_rep: RTLeaf, left: RTNode, right: RTNode) -> RTHelper:
        port = simulating_rep.port
        if port in busy or port in claimed:
            raise InvariantViolationError(
                f"representative mechanism picked busy port {port} to simulate a helper"
            )
        helper = RTHelper(simulated_by=port)
        helper.attach_children(left, right)
        helper.representative = inherited_rep
        claimed.add(port)
        new_helpers.append(helper)
        return helper

    # Each input's key is computed once, and a new helper's key reuses the
    # one of the tree whose representative it inherits.
    forest: List[Tuple[Tuple[int, tuple], RTNode]] = sorted(
        (
            ((node.num_leaves, port_order_key(representative_of(node).port)), node)
            for node in complete_roots
        ),
        key=_forest_key,
    )
    if len(forest) == 1:
        return forest[0][1], new_helpers

    # Phase 1 — combine equal-sized complete trees (binary-addition carries).
    i = 0
    while i < len(forest) - 1:
        (_, a), (b_key, b) = forest[i], forest[i + 1]
        if a.num_leaves == b.num_leaves:
            helper = make_helper(
                simulating_rep=representative_of(a),
                inherited_rep=representative_of(b),
                left=a,
                right=b,
            )
            del forest[i : i + 2]
            bisect.insort_left(forest, ((helper.num_leaves, b_key[1]), helper), key=_forest_key)
            i = max(i - 1, 0)
        else:
            i += 1

    # Phase 2 — chain the distinct-sized complete trees smallest-first; the
    # larger tree is always the left child so every prefix is a haft.
    root = forest[0][1]
    for _, tree in forest[1:]:
        root = make_helper(
            simulating_rep=representative_of(tree),
            inherited_rep=representative_of(root),
            left=tree,
            right=root,
        )
    return root, new_helpers


def affected_rt_nodes(
    engine, node: NodeId
) -> Tuple[List[ReconstructionTree], Dict[int, List[RTNode]]]:
    """The RTs the deletion of ``node`` would dismantle, and the RT nodes dying in each."""
    if node not in engine._g_prime:
        raise UnknownNodeError(node, "affected_rt_nodes")
    rt_of_leaf, rt_of_helper = engine._rt_of_leaf, engine._rt_of_helper
    affected: Dict[int, ReconstructionTree] = {}
    dead: Dict[int, List[RTNode]] = {}
    for neighbor in engine._g_prime.neighbors(node):
        own = (node, neighbor)
        rt = rt_of_leaf.get(own)
        if rt is not None:
            affected[rt.rt_id] = rt
            dead.setdefault(rt.rt_id, []).append(rt.leaves[own])
        rt = rt_of_helper.get(own)
        if rt is not None:
            affected[rt.rt_id] = rt
            dead.setdefault(rt.rt_id, []).append(rt.helpers[own])
    return list(affected.values()), dead


def _node_port(node: RTNode) -> Port:
    return node.port if isinstance(node, RTLeaf) else node.simulated_by


def plan_strip_walk(
    rt: ReconstructionTree,
    dead_processor: NodeId,
    dead_nodes: Sequence[RTNode],
    probe_path: Sequence[NodeId],
) -> StripPlan:
    """Lay out the strip of one affected RT without mutating it (the retired walk)."""
    plan = StripPlan()
    path_index = {proc: i for i, proc in enumerate(probe_path)}
    last_position = max(len(probe_path) - 1, 0)

    def position_of(processor: NodeId, depth: int) -> int:
        if processor in path_index:
            return path_index[processor]
        return min(depth, last_position)

    def add_piece(node: RTNode, depth: int) -> None:
        plan.summaries.append(summary_of(node))
        plan.spine_positions.append(position_of(_node_port(node).processor, depth))

    def release(helper: RTHelper) -> None:
        if helper.simulated_by.processor != dead_processor:
            plan.released_by_processor.setdefault(helper.simulated_by.processor, []).append(
                helper.simulated_by
            )

    def record_cut(parent: RTNode, child: RTNode) -> None:
        p, c = _node_port(parent).processor, _node_port(child).processor
        if p == c or dead_processor in (p, c):
            return  # self-projections carry no link; dead-incident links are purged
        key = link_source_key(_node_port(parent), _node_port(child))
        plan.glue_by_processor.setdefault(p, []).append((key, p, c))

    def depth_of(node: RTNode) -> int:
        depth = 0
        cursor = node.parent
        while cursor is not None:
            depth += 1
            cursor = cursor.parent
        return depth

    def collect_strip(node: RTNode, depth: int) -> None:
        while True:
            if node.num_leaves == (1 << node.height):
                add_piece(node, depth)
                return
            release(node)
            if node.left is not None:
                record_cut(node, node.left)
                add_piece(node.left, depth)
            right = node.right
            if right is None:
                return
            record_cut(node, right)
            node = right
            depth += 1

    root = rt.root
    if isinstance(root, RTLeaf):
        if root.port.processor != dead_processor:
            add_piece(root, 0)
        return plan

    if not dead_nodes:
        collect_strip(root, 0)
        return plan

    dead_ids = {id(dead) for dead in dead_nodes}
    broken: Dict[int, RTNode] = {id(dead): dead for dead in dead_nodes}
    for dead in dead_nodes:
        cursor = dead.parent
        while cursor is not None and id(cursor) not in broken:
            broken[id(cursor)] = cursor
            cursor = cursor.parent
    for node in broken.values():
        if isinstance(node, RTLeaf):
            continue
        node_depth = depth_of(node)
        for child in (node.left, node.right):
            if child is not None:
                record_cut(node, child)
                if id(child) not in broken:
                    collect_strip(child, node_depth + 1)
        if id(node) not in dead_ids:
            release(node)
    return plan
