"""The distributed repair protocol: planning, phases and round counting.

This module turns one adversarial deletion into the message exchanges of the
paper's repair (Section 4.2, Algorithms A.3–A.9), executed on the
round-based :class:`repro.distributed.network.Network`:

Phase 0 — *notification*: every healed-graph neighbour of the victim learns
of the deletion (Figure 1's model step; delivered out of band, fault-exempt).

Phase 1 — *BT_v formation* (Algorithm A.3): the anchors of the affected
reconstruction-tree fragments and of the victim's directly-connected
neighbours link up into a balanced binary tree ``BT_v``.

Phase 2 — *probing* (``FindPrRoots``, Algorithm A.5): within every affected
RT, probe messages walk the right spine from the anchor towards the
rightmost leaf; each visited processor strips its broken fragments locally
("marks red") and primary-root *descriptors* — actual
:class:`~repro.distributed.merge.PieceSummary` payloads — are pipelined back
along the same path.

Phase 3 — *bottom-up merge* (Algorithms A.4/A.7/A.8/A.9): anchors batch the
descriptors that reached them up ``BT_v``; the *leader* anchor (the ``BT_v``
root) runs ``ComputeHaft`` on what it received
(:func:`repro.distributed.merge.merge_summaries`) and disseminates helper
assignments and parent updates to the simulating processors, which apply
them to their Table 1 records and to the network's sourced link set.

The merge is **message-native**: the structural outcome — which helper nodes
exist, who simulates them, the shape of the merged RT — is computed by the
leader from descriptors that physically travelled the network, so dropped or
delayed messages make processors *disagree*; the reconvergence loop in
:mod:`repro.distributed.simulator` detects and repairs the divergence.  The
centralized engine is consulted only *before* the deletion, to lay out each
participant's pre-failure local knowledge (:func:`plan_repair`) — the same
role it plays for the adversary — and afterwards only by the equivalence
tests, as an oracle.

Round accounting is deadline-driven: the protocol is synchronous, so every
participant knows when to act from timing bounds alone (an anchor ships its
list once the probe round-trip must have completed, the leader merges once
every anchor must have shipped).  :func:`execute_repair` advances the
network round by round until all deadlines passed and no messages remain in
flight; the number of rounds it took is the repair's recovery time, checked
against Lemma 4's ``O(log d log n)`` budget.

Under a fault schedule a repair can end with processors disagreeing; the
follow-up is *anti-entropy* (:mod:`repro.distributed.recovery`, PR 5): the
same per-participant contexts installed here double as the local state the
gossip-digest recovery derives its digests from, so no new knowledge is
handed out for recovery — each processor recovers from exactly what this
plan gave it plus the messages that reached it, with the cost ledgered
separately in a :class:`~repro.distributed.metrics.RecoveryCostReport`.

Under a *byzantine* schedule (PR 6) the payloads themselves can lie;
receivers verify sealed kinds and descriptor checksums at ``receive()``
time and cross-witness every descriptor against the first version they saw
(:meth:`Processor.install_repair` seeds the witness table from the plan's
per-participant knowledge).  A processor quarantined mid-protocol simply
looks crashed: every send below already guards on
``network.has_processor``, so the phases proceed around it and the
anti-entropy recovery converges on the survivors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.forgiving_graph import ForgivingGraph
from ..core.ports import NodeId, NodeKey, Port
from ..core.reconstruction_tree import ReconstructionTree, RTHelper, RTNode
from .merge import PieceSummary, plan_strip, trivial_summary
from .messages import AnchorLink, DeletionNotice, Probe
from .network import Network
from .processor import RepairContext, SpineRole

__all__ = ["RepairPlan", "plan_repair", "seed_repair", "execute_repair"]


@dataclass
class RepairPlan:
    """Everything the protocol needs to run one deletion's repair as messages.

    Built *before* the engine applies the deletion, from pre-deletion state
    only — it is the formalization of what each participant knows locally at
    failure time (its spine position, its own fragments, its anchor role),
    not a precomputed outcome.  The merge result is decided later, by the
    leader, from the descriptors that actually arrive.
    """

    victim: NodeId
    #: Healed-graph neighbours of the victim at deletion time.
    neighbors: List[NodeId] = field(default_factory=list)
    #: For every affected RT: the processors along the probe path (right
    #: spine, deduplicated) — consecutive entries are virtually adjacent.
    probe_paths: List[List[NodeId]] = field(default_factory=list)
    #: The anchors (one processor per merged piece) that will form ``BT_v``.
    anchors: List[NodeId] = field(default_factory=list)
    #: ``(parent, child)`` edges of the balanced anchor tree ``BT_v``.
    bt_edges: List[Tuple[NodeId, NodeId]] = field(default_factory=list)
    #: The ``BT_v`` root: the anchor that computes and disseminates the merge.
    leader: Optional[NodeId] = None
    #: Primary-root counts per affected RT (payload sizes of the list messages).
    primary_root_counts: List[int] = field(default_factory=list)
    #: Every surviving piece of the repair (RT pieces + trivial leaves) —
    #: the union of all participants' local knowledge.  The protocol never
    #: hands this set to anyone; it is the reconvergence audit's yardstick.
    all_summaries: List[PieceSummary] = field(default_factory=list)
    #: Per-participant local knowledge, ready to install.
    contexts: Dict[NodeId, RepairContext] = field(default_factory=dict)
    #: Last round at which any participant still has a timer pending.
    max_deadline: int = 1


def plan_repair(engine: ForgivingGraph, victim: NodeId) -> RepairPlan:
    """Inspect the engine *before* the deletion and lay out the repair.

    Reads only zero-copy views and O(deg)/O(broken-region) structures: the
    plan's cost is proportional to the victim's neighbourhood and the
    affected RTs' broken glue, never to the size of the network.  Orderings
    use the canonical :class:`repro.core.ports.NodeKey` total order, so
    planned trajectories are stable under order-preserving id relabelings.
    """
    actual = engine.actual_view()
    neighbors = (
        sorted(actual.neighbors(victim), key=NodeKey) if victim in actual else []
    )
    plan = RepairPlan(victim=victim, neighbors=list(neighbors))

    def context_for(node: NodeId) -> RepairContext:
        context = plan.contexts.get(node)
        if context is None:
            context = RepairContext(victim=victim)
            plan.contexts[node] = context
        return context

    affected = engine.affected_reconstruction_trees(victim)
    dead_by_rt = _dead_rt_nodes(engine, victim)
    anchors: List[NodeId] = []
    anchor_ready: Dict[NodeId, int] = {}
    for rt_index, rt in enumerate(affected):
        # The victim's processor is gone by the time the repair runs; its
        # spine slots are skipped (the probe hops over them).
        path = _dedupe(p for p in _right_spine_processors(rt) if p != victim)
        plan.probe_paths.append(path)
        plan.primary_root_counts.append(_primary_root_count(rt))
        strip = plan_strip(rt, victim, dead_by_rt.get(rt.rt_id, []), path)
        if not path:
            # The whole spine died with the victim: surviving fragments (they
            # hang off the left) detect the failure directly — their owners
            # anchor themselves with their own pieces.
            for summary in strip.summaries:
                plan.all_summaries.append(summary)
                owner = summary.root_port.processor
                context_for(owner).gathered[summary] = None
                if owner not in anchor_ready:
                    anchors.append(owner)
                    anchor_ready[owner] = 1
            for processor, released in strip.released_by_processor.items():
                context = context_for(processor)
                context.released.extend(released)
                context.strip_round = _merge_deadline(context.strip_round, 1)
            for processor, glue in strip.glue_by_processor.items():
                context = context_for(processor)
                context.glue.extend(glue)
                context.strip_round = _merge_deadline(context.strip_round, 1)
            continue
        plan.all_summaries.extend(strip.summaries)
        # Spine roles: who probes whom, who vouches for which pieces.
        by_position: Dict[int, List[PieceSummary]] = {}
        for summary, position in zip(strip.summaries, strip.spine_positions):
            by_position.setdefault(position, []).append(summary)
        length = len(path)
        for position, processor in enumerate(path):
            context = context_for(processor)
            role = SpineRole(
                rt_index=rt_index,
                position=position,
                prev_hop=path[position - 1] if position > 0 else None,
                next_hop=path[position + 1] if position + 1 < length else None,
                summaries=tuple(by_position.get(position, ())) if position > 0 else (),
                # The report wave should have returned from the spine's end
                # by round 2(L-1); a probed processor that heard nothing from
                # deeper down by its own slot initiates the wave itself.
                report_round=2 * length - position,
            )
            context.spines.append(role)
            if position == 0:
                # The anchor's own pieces are its local knowledge: they join
                # its gathered set directly instead of travelling a report.
                for summary in by_position.get(0, ()):
                    context.gathered[summary] = None
        # Strip knowledge of off-spine processors (broken-region interior):
        # applied on a model-level failure-detection deadline, see module doc.
        for processor, released in strip.released_by_processor.items():
            context = context_for(processor)
            context.released.extend(released)
            if processor not in path:
                context.strip_round = _merge_deadline(context.strip_round, 1)
        for processor, glue in strip.glue_by_processor.items():
            context = context_for(processor)
            context.glue.extend(glue)
            if processor not in path:
                context.strip_round = _merge_deadline(context.strip_round, 1)
        if path:
            anchor = path[0]
            if anchor not in anchor_ready:
                anchors.append(anchor)
            anchor_ready[anchor] = max(anchor_ready.get(anchor, 1), 2 * length)
    # Directly-connected neighbours contribute trivial single-leaf pieces and
    # anchor themselves.
    g_prime = engine.g_prime_graph_view()
    for neighbor in g_prime.neighbors(victim):
        if engine.is_alive(neighbor):
            summary = trivial_summary(neighbor, victim)
            plan.all_summaries.append(summary)
            context = context_for(neighbor)
            context.gathered[summary] = None
            if neighbor not in anchor_ready:
                anchors.append(neighbor)
                anchor_ready[neighbor] = 1

    plan.anchors = sorted(set(anchors), key=NodeKey)
    plan.bt_edges = _balanced_tree_edges(plan.anchors)
    if plan.anchors:
        plan.leader = plan.anchors[0]
    _assign_anchor_roles(plan, anchor_ready)
    return plan


def _assign_anchor_roles(plan: RepairPlan, anchor_ready: Dict[NodeId, int]) -> None:
    """Wire the anchors into ``BT_v`` and compute their shipping deadlines."""
    if not plan.anchors:
        return
    index_of = {anchor: i for i, anchor in enumerate(plan.anchors)}
    children: Dict[NodeId, List[NodeId]] = {}
    parent_of: Dict[NodeId, NodeId] = {}
    for parent, child in plan.bt_edges:
        children.setdefault(parent, []).append(child)
        parent_of[child] = parent
    # Ship rounds bottom-up: a child ships at S, the parent holds its own
    # batch until every child's list could have arrived (S + 2).
    ship: Dict[NodeId, int] = {}
    for anchor in sorted(plan.anchors, key=lambda a: -index_of[a]):
        ready = anchor_ready.get(anchor, 1)
        for child in children.get(anchor, ()):
            ready = max(ready, ship[child] + 2)
        ship[anchor] = ready
    deadline = 1
    for anchor in plan.anchors:
        context = plan.contexts.setdefault(anchor, RepairContext(victim=plan.victim))
        context.is_anchor = True
        context.bt_parent = parent_of.get(anchor)
        if anchor == plan.leader:
            context.is_leader = True
            context.decide_round = ship[anchor]
        else:
            context.ship_round = ship[anchor]
        deadline = max(deadline, ship[anchor])
    # Dissemination leaves the leader at decide time and lands one round
    # later; leave one more round of slack for self-delivered responses.
    plan.max_deadline = deadline + 2


def _merge_deadline(current: Optional[int], candidate: int) -> int:
    return candidate if current is None else min(current, candidate)


def _dead_rt_nodes(engine: ForgivingGraph, victim: NodeId) -> Dict[int, List[RTNode]]:
    """The RT nodes (leaves and helpers) that die with ``victim``, per RT id."""
    dead: Dict[int, List[RTNode]] = {}
    g_prime = engine.g_prime_graph_view()
    for neighbor in g_prime.neighbors(victim):
        own_port = Port(victim, neighbor)
        leaf_rt = engine._rt_of_leaf.get(own_port)
        if leaf_rt is not None:
            dead.setdefault(leaf_rt.rt_id, []).append(leaf_rt.leaves[own_port])
        helper_rt = engine._rt_of_helper.get(own_port)
        if helper_rt is not None:
            dead.setdefault(helper_rt.rt_id, []).append(helper_rt.helpers[own_port])
    return dead


def _right_spine_processors(rt: ReconstructionTree) -> List[NodeId]:
    """Processors along the root-to-rightmost-leaf path of an RT (the probe path)."""
    path: List[NodeId] = []
    node: Optional[RTNode] = rt.root
    while node is not None:
        path.append(node.processor)
        node = node.right if isinstance(node, RTHelper) else None
    return path


def _dedupe(path: Sequence[NodeId]) -> List[NodeId]:
    """Drop repeat visits: a processor already probed needs no second probe."""
    return list(dict.fromkeys(path))


def _primary_root_count(rt: ReconstructionTree) -> int:
    """Number of primary roots of an RT = number of 1-bits of its leaf count."""
    return bin(max(rt.size, 1)).count("1")


def seed_repair(network: Network, plan: RepairPlan) -> List[NodeId]:
    """Install ``plan``'s contexts and fire its Phase 0/1 seeding.

    This is the non-reactive prefix of a repair: context installation,
    out-of-band deletion notices, BT_v formation (Algorithm A.3) and the
    first probe hop of every spine (Algorithm A.5).  Everything after this
    is reactive — processors respond to what they receive, or act on their
    deadlines — so several seeded repairs can share one round loop: every
    message carries ``deleted=plan.victim`` as its epoch tag and every
    handler keys its state by that victim, so interleaved traffic from
    other epochs never collides.  A scaffold must already be open on
    ``network``.  Returns the live participants.
    """
    victim = plan.victim
    participants = [node for node in plan.contexts if network.has_processor(node)]
    for node in participants:
        network.processors[node].install_repair(plan.contexts[node])

    # Phase 0 — notification: the victim's neighbours detect the failure
    # locally (the model of Figure 1 informs them for free, so this is
    # delivered out of band and is fault-exempt); anchors likewise apply
    # their local strip knowledge, since their fragments are adjacent to
    # the failure.
    for neighbor in plan.neighbors:
        if network.has_processor(neighbor):
            network.processors[neighbor].receive(
                network.stamp(DeletionNotice(sender=neighbor, receiver=neighbor, deleted=victim))
            )

    # Phase 1 seeding — BT_v formation and the first probe hops.
    for parent, child in plan.bt_edges:
        if network.has_processor(parent) and network.has_processor(child):
            network.scaffold_link(parent, child)
            network.send(
                AnchorLink(sender=child, receiver=parent, deleted=victim, anchor_port=None)
            )
    for rt_index, path in enumerate(plan.probe_paths):
        live = [p for p in path if network.has_processor(p)]
        if not live:
            continue
        anchor = live[0]
        context = plan.contexts[anchor]
        for role in context.spines:
            if role.rt_index == rt_index:
                role.probed = True
                role.probe_forwarded = True
        anchor_processor = network.processors[anchor]
        if not context.stripped:
            anchor_processor.apply_strip(context)
        if len(live) > 1:
            network.send(
                Probe(sender=anchor, receiver=live[1], deleted=victim, hops=1, rt_index=rt_index)
            )
    return participants


def execute_repair(network: Network, plan: RepairPlan) -> int:
    """Run the repair of ``plan.victim`` as messages on ``network``.

    Must be called after the victim's processor has been removed.  The
    engine is *not* consulted: participants act on the installed contexts
    and on what they receive.  Returns the number of communication rounds
    the repair used.  This is the retained one-repair-at-a-time reference;
    ``simulator.delete_batch`` drives the same :func:`seed_repair` prefix
    for several plans inside one shared round loop.
    """
    network.begin_scaffold()
    participants = seed_repair(network, plan)
    rounds = 1

    # ------------------------------------------------------------------ #
    # The synchronous round loop: deliver, then fire deadline timers.
    # ------------------------------------------------------------------ #
    while network.in_flight or rounds < plan.max_deadline:
        network.deliver_round()
        rounds += 1
        network.tick(rounds, participants)

    # Every link this repair created for its own traffic (BT_v edges, probe
    # hops, merge wiring) is dropped again unless the healed graph now
    # sources it (Algorithm A.3, "delete the edges E_v") — decided from the
    # network's own source sets, not from an engine probe.
    network.end_scaffold()
    return rounds


def _balanced_tree_edges(anchors: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    """(parent, child) edges of a balanced binary tree over the anchors."""
    edges: List[Tuple[NodeId, NodeId]] = []
    for index in range(1, len(anchors)):
        parent = anchors[(index - 1) // 2]
        child = anchors[index]
        if parent != child:
            edges.append((parent, child))
    return edges
