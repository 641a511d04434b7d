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
delayed messages make processors *disagree*; the anti-entropy recovery of
:mod:`repro.distributed.recovery` detects and repairs the divergence.  The
centralized engine is consulted only *before* the deletion, to lay out each
participant's pre-failure local knowledge (:func:`plan_repair`, which
describes the engine's survey of the deletion, the one the oracle then
applies) — the same role it plays for the adversary — and afterwards only
by the equivalence tests, as an oracle.

Round accounting is deadline-driven: the protocol is synchronous, so every
participant knows when to act from timing bounds alone (an anchor ships its
list once the probe round-trip must have completed, the leader merges once
every anchor must have shipped).  :func:`execute_repair` is the one round
loop: it advances the network round by round until all deadlines passed and
no messages remain in flight, waking only the participants whose deadline
is due; the number of rounds it took is the repair's recovery time, checked
against Lemma 4's ``O(log d log n)`` budget.

Under a fault schedule a repair can end with processors disagreeing; the
follow-up is *anti-entropy* (:mod:`repro.distributed.recovery`), polled
inside the same loop: the same per-participant contexts installed here
double as the local state the gossip-digest recovery derives its digests
from, so no new knowledge is handed out for recovery — each processor
recovers from exactly what this plan gave it plus the messages that
reached it, with the cost ledgered separately in a
:class:`~repro.distributed.metrics.RecoveryCostReport`.

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

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.forgiving_graph import ForgivingGraph
from ..core.ports import NodeId, sorted_nodes
from ..core.reconstruction_tree import DeletionSurvey, ReconstructionTree, RTHelper, RTNode
from .merge import PieceSummary, plan_strip, trivial_summary
from .messages import AnchorLink, DeletionNotice, Probe
from .network import Network
from .processor import Processor, RepairContext, SpineRole
from .recovery import BackgroundRecovery

__all__ = [
    "RepairPlan",
    "plan_repair",
    "seed_repair",
    "execute_repair",
    "footprint",
    "repair_footprint",
    "independent_repair_batches",
    "select_disjoint_victims",
]


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
    #: Per-participant local knowledge, ready to install.
    contexts: Dict[NodeId, RepairContext] = field(default_factory=dict)
    #: Last round at which any participant still has a timer pending.
    max_deadline: int = 1
    #: The engine's survey of the deletion, which this plan describes: the
    #: oracle applies it (``ForgivingGraph.delete(victim, survey)``).
    survey: Optional[DeletionSurvey] = None


def plan_repair(engine: ForgivingGraph, victim: NodeId) -> RepairPlan:
    """Inspect the engine *before* the deletion and lay out the repair.

    Describes the engine's survey of the deletion
    (:meth:`~repro.core.forgiving_graph.ForgivingGraph.survey`: the affected
    RTs' strip walks and the new trivial leaves' ports) to the processors,
    and keeps it on the plan for the oracle to apply.  Reads only the
    engine's O(1) per-node accessors and O(deg)/O(broken-region)
    structures, and builds no graph view: the plan's cost is proportional
    to the victim's neighbourhood and the affected RTs' broken glue, never
    to the size of the network.  Orderings use the canonical
    :func:`repro.core.ports.node_order_key` total order, so planned
    trajectories are stable under order-preserving id relabelings.
    """
    neighbors = sorted_nodes(engine.actual_neighbors(victim)) if engine.is_alive(victim) else []
    survey = engine.survey(victim)
    plan = RepairPlan(victim=victim, neighbors=neighbors, survey=survey)

    def context_for(node: NodeId) -> RepairContext:
        context = plan.contexts.get(node)
        if context is None:
            context = RepairContext(victim=victim)
            plan.contexts[node] = context
        return context

    # A context's containers start empty and shared (see RepairContext); the
    # writes below give a participant containers of its own only for the
    # roles it plays, and append to them from then on.
    anchors: List[NodeId] = []
    anchor_ready: Dict[NodeId, int] = {}
    for rt_index, walk in enumerate(survey.strips):
        # The victim's processor is gone by the time the repair runs; its
        # spine slots are skipped (the probe hops over them).
        path = _dedupe(p for p in _right_spine_processors(walk.rt) if p != victim)
        plan.probe_paths.append(path)
        strip = plan_strip(walk, victim, path)
        if path:
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
                    # The report wave should have returned from the spine's
                    # end by round 2(L-1); a probed processor that heard
                    # nothing from deeper down by its own slot initiates the
                    # wave itself.
                    report_round=2 * length - position,
                )
                if context.spines:
                    context.spines.append(role)
                else:
                    context.spines = [role]
                if position == 0:
                    # The anchor's own pieces are its local knowledge: they
                    # join its gathered set directly instead of travelling a
                    # report.
                    for summary in by_position.get(0, ()):
                        context.gather(summary)
            anchor = path[0]
            if anchor not in anchor_ready:
                anchors.append(anchor)
            anchor_ready[anchor] = max(anchor_ready.get(anchor, 1), 2 * length)
        else:
            # The whole spine died with the victim: surviving fragments (they
            # hang off the left) detect the failure directly — their owners
            # anchor themselves with their own pieces.
            for summary in strip.summaries:
                owner = summary.root_port.processor
                context_for(owner).gather(summary)
                if owner not in anchor_ready:
                    anchors.append(owner)
                    anchor_ready[owner] = 1
        # Strip knowledge of off-spine processors (broken-region interior,
        # or everyone once the spine died) is applied on a model-level
        # failure-detection deadline, round 1, see module doc.  The strip's
        # lists are fresh per call: the first one a participant gets becomes
        # its own.
        for processor, released in strip.released_by_processor.items():
            context = context_for(processor)
            if context.released:
                context.released.extend(released)
            else:
                context.released = released
            if processor not in path:
                context.strip_round = 1
        for processor, glue in strip.glue_by_processor.items():
            context = context_for(processor)
            if context.glue:
                context.glue.extend(glue)
            else:
                context.glue = glue
            if processor not in path:
                context.strip_round = 1
    # Directly-connected neighbours contribute trivial single-leaf pieces,
    # described on the ports the oracle's new leaves are built on, and
    # anchor themselves.
    for port in survey.trivial_ports:
        neighbor = port.processor
        context = context_for(neighbor)
        context.gather(trivial_summary(port))
        if neighbor not in anchor_ready:
            anchors.append(neighbor)
            anchor_ready[neighbor] = 1

    plan.anchors = sorted_nodes(set(anchors))
    plan.bt_edges = _balanced_tree_edges(plan.anchors)
    if plan.anchors:
        plan.leader = plan.anchors[0]
    _assign_anchor_roles(plan, anchor_ready)
    return plan


def _assign_anchor_roles(plan: RepairPlan, anchor_ready: Dict[NodeId, int]) -> None:
    """Wire the anchors into ``BT_v`` and compute their shipping deadlines."""
    if not plan.anchors:
        return
    children: Dict[NodeId, List[NodeId]] = {}
    parent_of: Dict[NodeId, NodeId] = {}
    for parent, child in plan.bt_edges:
        children.setdefault(parent, []).append(child)
        parent_of[child] = parent
    # Ship rounds bottom-up: a child ships at S, the parent holds its own
    # batch until every child's list could have arrived (S + 2).  A child
    # always comes after its parent in the anchor order.
    ship: Dict[NodeId, int] = {}
    for anchor in reversed(plan.anchors):
        ready = anchor_ready.get(anchor, 1)
        for child in children.get(anchor, ()):
            ready = max(ready, ship[child] + 2)
        ship[anchor] = ready
    deadline = 1
    for anchor in plan.anchors:
        # Every anchor got its context where it became an anchor.
        context = plan.contexts[anchor]
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


def _right_spine_processors(rt: ReconstructionTree) -> List[NodeId]:
    """Processors along the root-to-rightmost-leaf path of an RT (the probe path)."""
    path: List[NodeId] = []
    node: Optional[RTNode] = rt.root
    while node is not None:
        path.append(node.port.processor)
        node = node.right if isinstance(node, RTHelper) else None
    return path


def _dedupe(path: Sequence[NodeId]) -> List[NodeId]:
    """Drop repeat visits: a processor already probed needs no second probe."""
    return list(dict.fromkeys(path))


def seed_repair(network: Network, plan: RepairPlan) -> List[NodeId]:
    """Install ``plan``'s contexts and fire its Phase 0/1 seeding.

    This is the non-reactive prefix of a repair: context installation,
    out-of-band deletion notices, BT_v formation (Algorithm A.3) and the
    first probe hop of every spine (Algorithm A.5).  Everything after this
    is reactive — processors respond to what they receive, or act on their
    deadlines — so several seeded repairs can share one round loop: every
    message carries ``deleted=plan.victim`` as its epoch tag and every
    handler keys its state by that victim, so interleaved traffic from
    other epochs never collides.  A repair must already be open on
    ``network`` (:meth:`~repro.distributed.network.Network.begin_scaffold`):
    BT_v's edges and the probe hops are the repair's temporary edges, which
    the open repair lets it use without writing a link.  Returns the live
    participants.
    """
    victim = plan.victim
    processors = network.processors
    participants = [node for node in plan.contexts if node in processors]
    for node in participants:
        processors[node].install_repair(plan.contexts[node])

    # Phase 0 — notification: the victim's neighbours detect the failure
    # locally (the model of Figure 1 informs them for free, so this is
    # delivered out of band and is fault-exempt); anchors likewise apply
    # their local strip knowledge, since their fragments are adjacent to
    # the failure.
    for neighbor in plan.neighbors:
        processor = processors.get(neighbor)
        if processor is not None:
            processor.receive(DeletionNotice(neighbor, neighbor, victim))

    # Phase 1 seeding — BT_v formation and the first probe hops.
    for parent, child in plan.bt_edges:
        if parent in processors and child in processors:
            network.send(AnchorLink(child, parent, victim))
    for rt_index, path in enumerate(plan.probe_paths):
        live = [p for p in path if p in processors]
        if not live:
            continue
        anchor = live[0]
        context = plan.contexts[anchor]
        for role in context.spines:
            if role.rt_index == rt_index:
                role.probed = True
                role.probe_forwarded = True
        if not context.stripped:
            processors[anchor].apply_strip(context)
        if len(live) > 1:
            network.send(Probe(anchor, live[1], victim, 1, rt_index))
    return participants


def execute_repair(
    network: Network,
    participants: Sequence[NodeId],
    deadline: int,
    recoveries: Sequence[BackgroundRecovery] = (),
    max_rounds: int = 600,
) -> int:
    """The synchronous round loop every repair and recovery runs in.

    Each round delivers what is in flight, fires the participants' due
    timers and polls every recovery, until nothing is in flight, round
    ``deadline`` has passed and every recovery has finished.  Only the
    participants with a timer due are ticked, in participant order, through
    one ``Network.tick`` call in each round that has one: a heap orders the
    participants by :meth:`Processor.next_deadline`, and a ticked one goes
    back at the next deadline its tick hands back (never later than its
    true one) but never earlier than the next round, so a timer past due
    that cannot fire yet is retried every round.  A popped entry is
    re-read, and a stale one goes back or is dropped untouched; a tick with
    nothing due is a no-op, so this fires exactly what ticking every
    participant would.
    Seeding (:func:`seed_repair`) and opening and closing the repair
    (``Network.begin_scaffold`` / ``end_scaffold``) are the caller's.  At
    ``max_rounds`` each unfinished recovery is finished with its epoch's
    in-flight count as leftover, and everything in flight is discarded into
    its epoch's ``dropped`` tally, so stale traffic never reaches a later
    repair.  Returns the rounds counted, the seeding round included.
    """
    processors = network.processors
    deadlines = [_next_deadline(processors, node) for node in participants]
    timers = [(due, index) for index, due in enumerate(deadlines) if due is not None]
    heapq.heapify(timers)
    rounds = 1
    while (
        network.in_flight
        or rounds < deadline
        or (recoveries and not all(recovery.finished for recovery in recoveries))
    ):
        if rounds >= max_rounds:
            for recovery in recoveries:
                if not recovery.finished:
                    recovery.finish(rounds, leftover=network.in_flight_for(recovery.victim))
            network.drop_in_flight()
            break
        network.deliver_round()
        rounds += 1
        if timers and timers[0][0] <= rounds:
            ticked = _due_participants(processors, participants, timers, rounds)
            if ticked:
                deadlines = network.tick(rounds, [participants[index] for index in ticked])
                for index, due in zip(ticked, deadlines):
                    if due is not None:
                        heapq.heappush(timers, (max(due, rounds + 1), index))
        for recovery in recoveries:
            recovery.step(rounds)
    return rounds


def _next_deadline(processors: Dict[NodeId, Processor], node: NodeId) -> Optional[int]:
    processor = processors.get(node)
    return processor.next_deadline() if processor is not None else None


def _due_participants(
    processors: Dict[NodeId, Processor],
    participants: Sequence[NodeId],
    timers: List[Tuple[int, int]],
    round_index: int,
) -> List[int]:
    """Pop the indices of the participants with a timer due at ``round_index``, sorted.

    An entry is stale when messages retired the timer it was pushed for:
    its participant goes back at its current deadline, or is dropped when
    nothing is pending or its processor is gone, without a tick.
    """
    due: List[int] = []
    while timers and timers[0][0] <= round_index:
        _, index = heapq.heappop(timers)
        deadline = _next_deadline(processors, participants[index])
        if deadline is None:
            continue
        if deadline > round_index:
            heapq.heappush(timers, (deadline, index))
        else:
            due.append(index)
    due.sort()
    return due


def footprint(plan: RepairPlan) -> FrozenSet[NodeId]:
    """The processors ``plan``'s repair touches: every participant plus the victim.

    Two repairs whose footprints are disjoint share no spine, no anchor and
    no scaffold traffic, so they can heal concurrently without racing: the
    independence test of :func:`independent_repair_batches`, which
    ``DistributedForgivingGraph.delete_batch`` admits its waves by.
    """
    return frozenset(plan.contexts) | {plan.victim}


def repair_footprint(healer, victim: NodeId) -> FrozenSet[NodeId]:
    """The :func:`footprint` of ``victim``'s repair, planned read-only now.

    :func:`plan_repair` is a pre-deletion inspection costing O(victim
    neighbourhood + broken glue).  Accepts the distributed healer or a bare
    engine.
    """
    engine = getattr(healer, "_engine", healer)
    return footprint(plan_repair(engine, victim))


def independent_repair_batches(
    footprints: Sequence[Tuple[NodeId, FrozenSet[NodeId]]],
) -> List[List[NodeId]]:
    """Greedily group repairs with pairwise-disjoint footprints into batches.

    ``footprints`` is a sequence of ``(victim, footprint)`` pairs (see
    :func:`footprint`).  Returns batches of victims, in input order within
    each batch: every batch's footprints are pairwise disjoint, so its
    repairs touch disjoint spines and may run concurrently; successive
    batches must still run in sequence.  Greedy first-fit keeps the
    grouping deterministic (a victim lands in the earliest batch it does
    not collide with), which the sharded-sweep equivalence relies on.
    """
    batches: List[List[NodeId]] = []
    occupied: List[set] = []
    for victim, fp in footprints:
        for index, taken in enumerate(occupied):
            if taken.isdisjoint(fp):
                batches[index].append(victim)
                taken.update(fp)
                break
        else:
            batches.append([victim])
            occupied.append(set(fp))
    return batches


def select_disjoint_victims(
    healer,
    candidates: Sequence[NodeId],
    limit: Optional[int] = None,
) -> List[NodeId]:
    """First-fit a burst of pairwise-disjoint-footprint victims (read-only).

    Walks ``candidates`` in order, keeping each victim whose
    :func:`repair_footprint` is disjoint from everything already kept —
    i.e. the first batch :func:`independent_repair_batches` would form —
    optionally truncated to ``limit``.  This is how the concurrent-burst
    experiments and tests pick a burst that ``delete_batch`` can admit in
    a single wave.
    """
    footprints = [(victim, repair_footprint(healer, victim)) for victim in candidates]
    batches = independent_repair_batches(footprints)
    burst = batches[0] if batches else []
    return burst[:limit] if limit is not None else burst


def _balanced_tree_edges(anchors: Sequence[NodeId]) -> List[Tuple[NodeId, NodeId]]:
    """(parent, child) edges of a balanced binary tree over the anchors."""
    edges: List[Tuple[NodeId, NodeId]] = []
    for index in range(1, len(anchors)):
        parent = anchors[(index - 1) // 2]
        child = anchors[index]
        if parent != child:
            edges.append((parent, child))
    return edges
