"""The distributed Forgiving Graph: the healer API on a message-passing substrate.

:class:`DistributedForgivingGraph` exposes the same healer protocol as
:class:`repro.core.ForgivingGraph` (``insert`` / ``delete`` /
``actual_graph`` / ``g_prime_view`` / ``alive_nodes`` ...), but every repair
runs as explicit messages over a synchronous round-based network of
:class:`~repro.distributed.processor.Processor` objects, each holding the
Table 1 per-edge state.  ``delete`` therefore returns a
:class:`~repro.distributed.metrics.DeletionCostReport` with the quantities
Lemma 4 bounds: total messages, bits, rounds, the largest message and the
busiest processor.

The merge is **message-native** (PR 4): the structural outcome of each
repair — which helper nodes exist, who simulates them, which healed links
appear — is decided by the merge-leader processor from the primary-root
descriptors that physically reached it, and applied by the owners from the
instructions they physically received (see
:mod:`repro.distributed.protocol`).  The embedded reference engine still
executes every adversarial move, but only as an *oracle*: it maintains the
``G'`` bookkeeping the adversary and the measurement layer read, and the
equivalence tests compare the distributed state against it.  Nothing on the
repair path consults the engine's merge outcome — under a lossless network
the two provably coincide; under an injected
:class:`~repro.distributed.faults.FaultSchedule` they *diverge*.

Every repair has one driver: ``delete`` runs a one-victim wave and
``delete_batch`` runs waves of disjoint repairs, both through
:meth:`_run_wave`, whose shared round loop is
:func:`~repro.distributed.protocol.execute_repair`.  The recovery is
message-native too: a :class:`~repro.distributed.recovery.BackgroundRecovery`
polled by that same loop runs the gossip-digest anti-entropy protocol —
each participant derives a compact digest from its *own* repair context and
Table 1 records, gossips it along spine/anchor links as real ``Digest`` /
``DigestRequest`` messages through :meth:`Network.deliver_round` (so faults
hit recovery traffic as well), and retransmits only what its neighbours'
digests show missing, until a sweep is silent.  :meth:`reconverge` runs one
more such recovery on demand for the repair ``delete`` left installed.  A
repair's plan is dropped once :func:`~repro.distributed.protocol.seed_repair`
has installed it, so nothing global outlives the seeding: the one oracle
check is :meth:`verify_consistency`, which compares the state the processors
reached with the reference engine's.

Fault tolerance is **byzantine-aware** (PR 6): when the fault schedule
carries a byzantine axis, designated processors corrupt outgoing payloads
(see :class:`~repro.distributed.faults.ByzantinePolicy`), receivers detect
the lies message-natively — payload seals, descriptor checksums and
cross-witness validation, never an oracle read — and every detection lands
as an :class:`~repro.distributed.accountability.Accusation` on the
network's transcript, quarantining the accused (crash semantics: links
dropped, recovery heals around it).  ``delete`` snapshots the transcript
and the oracle-side injection log around each repair and attaches the
deltas — accusations, containment radius, detection latency — as a
:class:`~repro.distributed.metrics.ByzantineReport` on the cost report.

The accounting remains incremental end to end (Lemma 4 bounds each repair
at ``O(d log n)`` messages, so the measurement layer must not be O(n + m)
per deletion): planning reads zero-copy views and O(broken-region)
structures, link maintenance is driven by O(repair) message effects on the
network's sourced link set, and per-deletion cost reports come from each
repair's epoch window (a :class:`~repro.distributed.metrics.MetricsWindow`
keyed by the victim every repair message carries as its ``deleted`` tag).

The class is also a first-class engine citizen: it is registered in
:mod:`repro.baselines.registry` as ``"distributed_forgiving_graph"``, it
exposes the degree-touch journal the incremental adversaries consume, and
:class:`repro.engine.AttackSession` attaches each deletion's
``DeletionCostReport`` to its :class:`~repro.engine.StepEvent`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..core.errors import InvariantViolationError
from ..core.forgiving_graph import ForgivingGraph
from ..core.graph_fill import fill_graph, fill_graph_from_adjacency
from ..core.ports import NodeId, Port
from ..core.reconstruction_tree import RTHelper, RTLeaf, RTNode
from .faults import FaultSchedule
from .messages import InsertionNotice
from .metrics import (
    BurstCostReport,
    ByzantineReport,
    DeletionCostReport,
    MetricsWindow,
    RecoveryCostReport,
)
from .network import REAL_EDGE, Network
from .processor import EdgeRecord
from .protocol import (
    RepairPlan,
    execute_repair,
    footprint,
    independent_repair_batches,
    plan_repair,
    seed_repair,
)
from .recovery import BackgroundRecovery

__all__ = ["DistributedForgivingGraph"]


@dataclass
class _Repair:
    """One admitted repair, as recovery and reporting read it.

    Every field but ``participants`` is copied out of the plan at
    admission, and ``participants`` are the processors :func:`seed_repair`
    installed the repair on, so the plan itself is dropped once seeded.
    """

    victim: NodeId
    leader: Optional[NodeId]
    degree: int
    helpers_released: int
    deadline: int
    participants: List[NodeId] = field(default_factory=list)


def _child_port(node: RTNode) -> Port:
    """The port a parent's Table 1 record names for its child ``node``."""
    return node.port if isinstance(node, RTLeaf) else node.simulated_by


@dataclass(frozen=True)
class _ByzantineMark:
    """The accountability counters before a repair; its report carries the deltas."""

    accused: frozenset
    accusations: int
    lies_sent: int
    lies_delivered: int


class DistributedForgivingGraph:
    """Forgiving Graph healer running on the message-passing substrate.

    Parameters
    ----------
    fault_schedule:
        Optional :class:`~repro.distributed.faults.FaultSchedule`; when set,
        protocol messages can be dropped / delayed / reordered and each
        deletion's repair is followed by anti-entropy recovery (see
        ``auto_reconverge``).
    auto_reconverge:
        Run each repair's anti-entropy recovery in the repair's own round
        loop: every ``delete_batch`` wave's, and ``delete``'s when a fault
        schedule is active (on by default — the next adversarial move
        should find the network consistent, matching the paper's
        one-attack-at-a-time model).  Off, repairs end without recovery and
        :meth:`reconverge` runs it on demand.
    """

    name = "distributed_forgiving_graph"

    def __init__(
        self,
        fault_schedule: Optional[FaultSchedule] = None,
        auto_reconverge: bool = True,
    ) -> None:
        self._engine = ForgivingGraph()
        self.network = Network(fault_schedule=fault_schedule)
        #: One cost report per deletion, in order.
        self.cost_reports: List[DeletionCostReport] = []
        #: One recovery ledger per reconverge() call, in order.
        self.recovery_reports: List[RecoveryCostReport] = []
        #: One ledger per :meth:`delete_batch` call, in order.
        self.burst_reports: List[BurstCostReport] = []
        self.auto_reconverge = auto_reconverge
        #: The last delete()'s repair, installed until the next deletion.
        self._installed: Optional[_Repair] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: nx.Graph, **kwargs) -> "DistributedForgivingGraph":
        """Build the distributed healer from an initial networkx graph ``G_0``.

        The engine and the network each load ``G_0`` in one pass, in
        ``graph.nodes`` and ``graph.edges`` order (the engine from
        ``graph``'s adjacency rows); a self-loop raises
        :class:`~repro.core.errors.InvalidEdgeError`.
        """
        healer = cls(**kwargs)
        edges = healer._engine._load_genesis(graph)
        # The network counts its processors itself; ``verify_consistency``
        # cross-checks its ``n_ever`` against the engine's ``nodes_ever``.
        healer.network.load_genesis(graph.nodes, edges)
        return healer

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = (), **kwargs
    ) -> "DistributedForgivingGraph":
        """Build the distributed healer from an initial edge list."""
        graph = nx.Graph()
        fill_graph(graph, nodes, edges)
        return cls.from_graph(graph, **kwargs)

    # ------------------------------------------------------------------ #
    # healer protocol (delegated views)
    # ------------------------------------------------------------------ #
    @property
    def alive_nodes(self) -> Set[NodeId]:
        """Surviving node identifiers."""
        return self._engine.alive_nodes

    @property
    def deleted_nodes(self) -> Set[NodeId]:
        """Deleted node identifiers."""
        return self._engine.deleted_nodes

    @property
    def num_alive(self) -> int:
        """Number of surviving nodes."""
        return self._engine.num_alive

    @property
    def nodes_ever(self) -> int:
        """Number of nodes ever seen (the ``n`` of the theorems)."""
        return self._engine.nodes_ever

    @property
    def engine(self) -> ForgivingGraph:
        """The embedded reference engine (the equivalence oracle)."""
        return self._engine

    @property
    def fault_schedule(self) -> Optional[FaultSchedule]:
        """The active fault schedule, if any."""
        return self.network.fault_schedule

    def is_alive(self, node: NodeId) -> bool:
        """True when ``node`` is currently alive."""
        return self._engine.is_alive(node)

    def actual_graph(self) -> nx.Graph:
        """The healed graph ``G`` (the oracle's view)."""
        return self._engine.actual_graph()

    def actual_view(self) -> nx.Graph:
        """Zero-copy read-only view of the healed graph ``G``."""
        return self._engine.actual_view()

    def network_graph(self) -> nx.Graph:
        """The healed graph as the *processors* know it: current link set.

        This is the message-native counterpart of :meth:`actual_graph` —
        under a lossless network the two are identical; under faults they
        diverge until :meth:`reconverge` restores the fixed point.  Its
        nodes are the processors, in order (the link map holds one row per
        processor).
        """
        graph = nx.Graph()
        fill_graph_from_adjacency(graph, self.network._links)
        return graph

    def g_prime_view(self) -> nx.Graph:
        """The insertion-only graph ``G'``."""
        return self._engine.g_prime_view()

    def g_prime_graph_view(self) -> nx.Graph:
        """Zero-copy read-only view of ``G'``."""
        return self._engine.g_prime_graph_view()

    def g_prime_degree(self, node: NodeId) -> int:
        """Degree of ``node`` in ``G'``."""
        return self._engine.g_prime_degree(node)

    def actual_degree(self, node: NodeId) -> int:
        """Degree of ``node`` in the healed graph ``G`` (O(1))."""
        return self._engine.actual_degree(node)

    @property
    def degree_touch_log(self):
        """The engine's degree-touch journal (lets the incremental adversaries
        run their lazy-heap fast path against the distributed healer too)."""
        return self._engine.degree_touch_log

    def compact_journals(self) -> Dict[str, int]:
        """Compact the engine's journals (see :meth:`ForgivingGraph.compact_journals`)."""
        return self._engine.compact_journals()

    def degree_increase_factor(self, node: Optional[NodeId] = None) -> float:
        """Worst ``deg(v, G) / deg(v, G')`` ratio (Theorem 1.1's metric)."""
        return self._engine.degree_increase_factor(node)

    # ------------------------------------------------------------------ #
    # adversarial operations
    # ------------------------------------------------------------------ #
    def insert(self, node: NodeId, attach_to: Sequence[NodeId] = ()) -> None:
        """Adversarial insertion: join the network with edges to ``attach_to``.

        The inserted processor knows its chosen neighbours locally and sends
        each of them one :class:`InsertionNotice` so they can create their
        Table 1 edge record — the only communication insertions need.  The
        new links are sourced by the real edges (both endpoints know them at
        attach time, Figure 1's model), so a lost notice cannot detach the
        topology.
        """
        self._engine.insert(node, attach_to=attach_to)
        processor = self.network.add_processor(node)
        for neighbor in dict.fromkeys(attach_to):
            if not self.network.has_processor(neighbor):
                # A quarantined neighbour looks crashed to the protocol: the
                # oracle records the edge, but no processor can ack the
                # attachment, so the message-native side skips the wiring.
                continue
            self.network.add_link_source(REAL_EDGE, node, neighbor)
            processor.ensure_edge(neighbor)
            self.network.processors[neighbor].ensure_edge(node)
            self.network.send(InsertionNotice(sender=node, receiver=neighbor, inserted=node))
        if attach_to:
            self.network.deliver_round()

    def delete(self, node: NodeId) -> DeletionCostReport:
        """Adversarial deletion: heal the network and account for every message.

        The repair runs as a one-victim wave (:meth:`_run_wave`): planned
        from pre-deletion local knowledge, executed as messages, and
        measured off the victim's epoch window — O(repair) work throughout.
        Under a fault schedule (and ``auto_reconverge``) its anti-entropy
        recovery rides the same round loop.  The oracle is read before the
        repair (the victim's ``G'`` degree, and the RTs ``plan_repair`` lays
        out), never by the message path.  The repair stays installed until
        the next deletion, for :meth:`reconverge`.
        """
        if self._installed is not None:
            self._retire([self._installed])
        recover = self.network.fault_schedule is not None and self.auto_reconverge
        repairs, reports, _ = self._run_wave(
            [(node, plan_repair(self._engine, node))], recover=recover
        )
        self._installed = repairs[0]
        return reports[0]

    def _byzantine_mark(self) -> Optional[_ByzantineMark]:
        """Snapshot the transcript and injection-log counters before a repair.

        ``None`` when the fault schedule schedules no liars.
        """
        network = self.network
        schedule = network.fault_schedule
        if schedule is None or not schedule.has_byzantine:
            return None
        injection = network.injection_log
        return _ByzantineMark(
            accused=frozenset(network.transcript.accused),
            accusations=len(network.transcript),
            lies_sent=injection.total_sent,
            lies_delivered=injection.total_delivered,
        )

    def _byzantine_report(self, mark: Optional[_ByzantineMark]) -> Optional[ByzantineReport]:
        """The accountability deltas since ``mark`` (``None`` without liars)."""
        if mark is None:
            return None
        network = self.network
        transcript = network.transcript
        injection = network.injection_log
        newly = tuple(sorted(transcript.accused - mark.accused, key=repr))
        latencies: Dict[NodeId, int] = {}
        for accused in newly:
            latency = injection.detection_latency(accused, transcript)
            if latency is not None:
                latencies[accused] = latency
        return ByzantineReport(
            lies_sent=injection.total_sent - mark.lies_sent,
            lies_delivered=injection.total_delivered - mark.lies_delivered,
            accusations=len(transcript) - mark.accusations,
            newly_accused=newly,
            false_accusations=sum(
                1 for accused in newly if not network.fault_schedule.is_byzantine(accused)
            ),
            containment={
                accused: injection.containment_radius(accused) for accused in newly
            },
            detection_latency=latencies,
            quarantined_total=len(network.quarantined),
        )

    # ------------------------------------------------------------------ #
    # concurrent epoch-tagged bursts
    # ------------------------------------------------------------------ #
    def delete_batch(
        self,
        victims: Sequence[NodeId],
        concurrency: Optional[int] = None,
        max_rounds: int = 600,
        max_sweeps: int = 40,
    ) -> BurstCostReport:
        """Heal a burst of deletions, admitting disjoint repairs concurrently.

        The driver plans every pending victim, groups pairwise-disjoint
        repair footprints (:func:`~repro.distributed.protocol.footprint`)
        into an admission **wave** of at most ``concurrency`` repairs, and
        runs the whole wave's repairs inside one shared ``deliver_round``
        stream: every message carries its repair's victim as epoch tag,
        handler state is epoch-keyed, and per-epoch metrics windows
        attribute each message to its repair.  Overlapping footprints queue
        and are re-planned once their predecessors complete (the
        predecessor's repair changes the RT structure the successor's plan
        must read).  Anti-entropy is folded into the background: once a
        repair's deadline passes, its participants gossip digest chunks
        *inside the same loop* (see :class:`~repro.distributed.recovery
        .BackgroundRecovery`), and the first sweep after every
        ``recovery_satisfied`` predicate holds is recorded as the
        fixed-point probe — provably empty on the lossless path.

        ``concurrency=1`` runs waves of one, in ``victims`` order; each
        still runs its background recovery.  Burst cost trends to ~max, not
        ~sum, of the individual repair latencies
        (``test_disjoint_burst_runs_in_one_wave_and_fewer_rounds``).
        """
        victims = list(dict.fromkeys(victims))
        if self._installed is not None:
            self._retire([self._installed])
            self._installed = None
        pending = list(victims)
        all_reports: List[DeletionCostReport] = []
        wave_sizes: List[int] = []
        total_rounds = 0
        while pending:
            # Plan every pending victim on the *current* engine state and
            # admit the first-fit disjoint batch.
            plans = {victim: plan_repair(self._engine, victim) for victim in pending}
            wave = independent_repair_batches(
                [(victim, footprint(plan)) for victim, plan in plans.items()]
            )[0]
            if concurrency is not None:
                wave = wave[: max(int(concurrency), 1)]
            admitted = set(wave)
            pending = [victim for victim in pending if victim not in admitted]
            repairs, wave_reports, wave_rounds = self._run_wave(
                [(victim, plans[victim]) for victim in wave],
                recover=self.auto_reconverge,
                max_rounds=max_rounds,
                max_sweeps=max_sweeps,
            )
            self._retire(repairs)
            all_reports.extend(wave_reports)
            wave_sizes.append(len(wave))
            total_rounds += wave_rounds
        burst = BurstCostReport(
            victims=tuple(victims),
            concurrency=concurrency,
            waves=len(wave_sizes),
            rounds=total_rounds,
            reports=all_reports,
            wave_sizes=tuple(wave_sizes),
        )
        self.burst_reports.append(burst)
        return burst

    def _run_wave(
        self,
        wave: List[Tuple[NodeId, RepairPlan]],
        recover: bool,
        max_rounds: int = 600,
        max_sweeps: int = 40,
    ) -> Tuple[List[_Repair], List[DeletionCostReport], int]:
        """Run one wave of disjoint repairs in the shared round loop.

        The whole wave dies in one adversarial move: the oracle deletes
        every victim first, then every repair seeds its Phase 0/1 into the
        same open scaffold under its own epoch window, and
        :func:`execute_repair` runs them together — with one
        :class:`BackgroundRecovery` per epoch when ``recover`` is set.  A
        wave that reaches ``max_rounds`` reports ``converged=False`` for
        every repair; the traffic the loop discarded is in each report's
        ``dropped_messages``.  Returns the admitted repairs (still installed
        on their participants; the caller retires them), one cost report
        per victim and the wave's rounds.
        """
        network = self.network
        metrics = network.metrics
        mark = self._byzantine_mark()

        # Everything recovery and reporting need is copied out of the plans
        # now; nothing reads a plan once it is seeded.
        repairs = [
            _Repair(
                victim=victim,
                leader=plan.leader,
                degree=self._engine.g_prime_degree(victim),
                helpers_released=sum(
                    len(context.released) for context in plan.contexts.values()
                ),
                deadline=plan.max_deadline,
            )
            for victim, plan in wave
        ]
        # The oracle executes the same move first (it owns the G'/alive
        # bookkeeping every consumer reads); the message path never reads
        # its merge outcome.
        for repair in repairs:
            self._engine.delete(repair.victim)
            if network.has_processor(repair.victim):
                network.remove_processor(repair.victim)
        network.begin_scaffold()
        for repair, (_, plan) in zip(repairs, wave):
            metrics.begin_epoch_window(repair.victim)
            repair.participants = seed_repair(network, plan)

        repair_windows: Dict[NodeId, MetricsWindow] = {}
        recoveries: Dict[NodeId, BackgroundRecovery] = {}
        if recover:
            for repair in repairs:

                def _roll_window(victim: NodeId = repair.victim) -> None:
                    # The repair phase is quiet: everything this epoch sends
                    # from here on is anti-entropy, attributed to its own
                    # recovery window.
                    repair_windows[victim] = metrics.end_epoch_window(victim)
                    metrics.begin_epoch_window(victim)

                recoveries[repair.victim] = BackgroundRecovery(
                    network,
                    victim=repair.victim,
                    participants=repair.participants,
                    degree=repair.degree,
                    n_ever=self._engine.nodes_ever,
                    deadline=repair.deadline,
                    max_sweeps=max_sweeps,
                    on_start=_roll_window,
                )

        # All epochs' probes, reports, merges, assignments and digests
        # interleave in the same delivery stream.
        rounds = execute_repair(
            network,
            list(dict.fromkeys(node for repair in repairs for node in repair.participants)),
            max((repair.deadline for repair in repairs), default=1),
            list(recoveries.values()),
            max_rounds,
        )
        starved = rounds >= max_rounds
        network.end_scaffold()

        byzantine = self._byzantine_report(mark)
        reports: List[DeletionCostReport] = []
        for repair in repairs:
            victim = repair.victim
            repair_window = repair_windows.pop(victim, None)
            if repair_window is None:
                # Recovery never reached its quiet point (or did not run):
                # the epoch window still holds the repair attribution.
                repair_window = metrics.end_epoch_window(victim)
                recovery_window = MetricsWindow()
            else:
                recovery_window = metrics.end_epoch_window(victim)
            recon: Optional[RecoveryCostReport] = None
            if victim in recoveries:
                recon = recoveries[victim].report(recovery_window)
                self.recovery_reports.append(recon)
            # The leader's own installed context: the plan is gone.
            leader = network.processors.get(repair.leader)
            context = leader.repairs.get(victim) if leader is not None else None
            outcome = context.outcome if context is not None else None
            reports.append(
                DeletionCostReport(
                    deleted_node=victim,
                    degree=repair.degree,
                    n_ever=self._engine.nodes_ever,
                    messages=repair_window.messages,
                    bits=repair_window.bits,
                    # Shared wall clock: every repair of the wave rode the
                    # same rounds, its recovery's included.
                    rounds=rounds,
                    max_message_bits=repair_window.max_message_bits,
                    max_messages_per_node=repair_window.max_messages_per_node(),
                    helpers_created=len(outcome.helpers) if outcome is not None else 0,
                    helpers_released=repair.helpers_released,
                    dropped_messages=repair_window.dropped
                    + (recon.dropped if recon is not None else 0),
                    retransmissions=recon.retransmissions if recon is not None else 0,
                    reconvergence_rounds=recon.rounds if recon is not None else 0,
                    converged=not starved and (recon is None or recon.converged),
                    recovery=recon,
                    # Wave-level accountability deltas ride the wave's last
                    # report (attaching to each would double-count under
                    # aggregation).
                    byzantine=byzantine if repair is repairs[-1] else None,
                )
            )
        self.cost_reports.extend(reports)
        return repairs, reports, rounds

    def _retire(self, repairs: Iterable[_Repair]) -> None:
        """Uninstall finished repairs from their surviving participants, and
        drop their epochs from every other processor they instructed."""
        network = self.network
        processors, holders = network.processors, network.epoch_holders
        for repair in repairs:
            victim = repair.victim
            for nodes in (repair.participants, holders.pop(victim, ())):
                for node in nodes:
                    processor = processors.get(node)
                    if processor is not None:
                        processor.uninstall_repair(victim)

    # ------------------------------------------------------------------ #
    # reconvergence (gossip-digest anti-entropy, message-native)
    # ------------------------------------------------------------------ #
    def reconverge(self, max_rounds: int = 600, max_sweeps: int = 40) -> RecoveryCostReport:
        """Drive the installed repair's distributed state back to a fixed point.

        Runs one :class:`~repro.distributed.recovery.BackgroundRecovery` for
        the repair the last :meth:`delete` left installed, through the round
        loop every repair uses, in its own scaffold and epoch window:
        participants gossip digests of their *own* repair state as real
        messages (faults hit them too) and retransmit exactly what their
        neighbours' digests show missing, until the fixed-point probe is
        silent.  Deterministic given the fault schedule's seed; exhausting
        ``max_rounds`` is reported (``converged=False`` plus the discarded
        in-flight count), never swallowed.  With no repair installed the
        report is empty and converged.
        """
        repair = self._installed
        if repair is None:
            return RecoveryCostReport(
                victim=None, degree=0, n_ever=self._engine.nodes_ever, converged=True
            )
        network = self.network
        recovery = BackgroundRecovery(
            network,
            victim=repair.victim,
            participants=repair.participants,
            degree=repair.degree,
            n_ever=self._engine.nodes_ever,
            deadline=0,
            max_sweeps=max_sweeps,
        )
        network.metrics.begin_epoch_window(repair.victim)
        network.begin_scaffold()
        # The first sweep leaves before any round is delivered, so even a
        # one-round budget finds this recovery's traffic in flight.
        recovery.step(1)
        execute_repair(network, repair.participants, 0, [recovery], max_rounds)
        network.end_scaffold()
        report = recovery.report(network.metrics.end_epoch_window(repair.victim))
        self.recovery_reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # consistency between distributed state and the reference engine
    # ------------------------------------------------------------------ #
    def verify_consistency(self) -> None:
        """Check that the distributed state matches the reference oracle.

        Raises :class:`InvariantViolationError` on the first divergence
        :meth:`audit_reference` would list.
        """
        for divergence in self._divergences():
            raise InvariantViolationError(divergence)

    def audit_reference(self) -> List[str]:
        """Every divergence :meth:`verify_consistency` raises on, as a list.

        Empty exactly when ``verify_consistency`` passes: the restore and
        rejoin certifications take both of their verdicts from one call.
        """
        return list(self._divergences())

    def _divergences(self) -> Iterator[str]:
        """Each way the distributed state differs from the reference oracle.

        Five families of checks: the network's addition-counted ``n_ever``
        must equal the engine's ``nodes_ever`` (the engine-driven
        cross-check of the message-sizing ``n``); the message-maintained
        link set must equal the healed graph's edge set; every link's
        *source multiplicity* must equal the engine's edge multiplicity
        (the distributed twin of the incremental ``G`` bookkeeping); for
        every helper node the engine maintains, the simulating processor
        must have ``has_helper`` set with the matching children pointers,
        with no processor claiming a helper the engine does not know about;
        and below each RT's root, every leaf's ``rt_parent`` and every
        helper's ``helper_parent`` must name the port simulating its parent
        in the engine's RT.  Roots are not compared: a merge instructs only
        the pieces it hangs under a new parent, so a piece left as the root
        keeps the parent pointer it had before its parent died.
        """
        network, engine = self.network, self._engine
        if network.n_ever != engine.nodes_ever:
            yield (
                f"network counted {network.n_ever} processors ever, "
                f"engine has seen {engine.nodes_ever} nodes"
            )

        healed_edges = {frozenset(edge) for edge in engine.actual_view().edges}
        links = {frozenset(link) for link in network.iter_links()}
        if links != healed_edges:
            yield (
                f"link set diverges from the healed graph "
                f"(missing={len(healed_edges - links)}, unexpected={len(links - healed_edges)})"
            )
        for u, v in healed_edges:
            count = engine.edge_multiplicity(u, v)
            have = network.link_source_count(u, v)
            if have != count:
                yield (
                    f"link ({u!r}, {v!r}) has {have} message-tracked sources, "
                    f"engine counts multiplicity {count}"
                )

        processors = network.processors
        engine_helpers: Dict[Port, RTHelper] = {}
        for rt in engine.reconstruction_trees():
            engine_helpers.update(rt.helpers)
            for port, leaf in rt.leaves.items():
                if leaf.parent is None:
                    continue
                processor = processors.get(port.processor)
                record = processor.record(port.neighbor) if processor is not None else None
                have = record.rt_parent if record is not None else None
                expected = leaf.parent.simulated_by
                if have != expected:
                    yield f"leaf {port} has rt_parent {have}, its engine RT parent is {expected}"

        recorded: Dict[Port, EdgeRecord] = {}
        for processor in processors.values():
            for port in processor.helper_ports():
                recorded[port] = processor.record(port.neighbor)
        missing = set(engine_helpers) - set(recorded)
        if missing:
            yield (
                f"{len(missing)} helper nodes are unknown to their processors: "
                f"{sorted(map(str, missing))[:5]}"
            )
        extra = set(recorded) - set(engine_helpers)
        if extra:
            yield (
                f"{len(extra)} processors claim helpers the engine does not have: "
                f"{sorted(map(str, extra))[:5]}"
            )
        for port, helper in engine_helpers.items():
            record = recorded.get(port)
            if record is None:
                continue
            if (record.helper_left, record.helper_right) != (
                _child_port(helper.left),
                _child_port(helper.right),
            ):
                yield f"helper {port} child pointers diverge between processor and engine"
            if helper.parent is not None and record.helper_parent != helper.parent.simulated_by:
                yield (
                    f"helper {port} has helper_parent {record.helper_parent}, "
                    f"its engine RT parent is {helper.parent.simulated_by}"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedForgivingGraph(alive={self.num_alive}, ever={self.nodes_ever}, "
            f"messages={self.network.metrics.total_messages})"
        )
