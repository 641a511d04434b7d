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

The recovery is message-native too (PR 5): :meth:`reconverge` is now a thin
driver over the gossip-digest anti-entropy protocol of
:mod:`repro.distributed.recovery` — each participant derives a compact
digest from its *own* repair context and Table 1 records, gossips it along
spine/anchor links as real ``Digest`` / ``DigestRequest`` messages through
:meth:`Network.deliver_round` (so faults hit recovery traffic as well), and
retransmits only what its neighbours' digests show missing, until a sweep
is silent.  The old plan-based global audit survives as
:meth:`_audit_reference` — an oracle for ``verify_consistency``-style
checks, never consulted by the recovery (``quarantine_plan_audit`` poisons
the plan's global knowledge to prove it structurally).

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
The seed-era full-diff link sync survives as
:meth:`_sync_links_reference` — now an oracle *resync* used by the
equivalence tests and as a last-resort recovery path.

The class is also a first-class engine citizen: it is registered in
:mod:`repro.baselines.registry` as ``"distributed_forgiving_graph"``, it
exposes the degree-touch journal the incremental adversaries consume, and
:class:`repro.engine.AttackSession` attaches each deletion's
``DeletionCostReport`` to its :class:`~repro.engine.StepEvent`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from ..core.errors import InvariantViolationError
from ..core.forgiving_graph import ForgivingGraph
from ..core.ports import NodeId, Port
from ..core.reconstruction_tree import RTHelper, RTLeaf
from .faults import FaultSchedule
from .merge import (
    helper_assignment,
    helper_retraction,
    link_source_key,
    parent_update,
    real_source_key,
)
from .messages import InsertionNotice, PrimaryRootList, Probe
from .metrics import (
    BurstCostReport,
    ByzantineReport,
    DeletionCostReport,
    MetricsWindow,
    RecoveryCostReport,
)
from .network import Network
from .protocol import (
    RepairPlan,
    execute_repair,
    footprint,
    independent_repair_batches,
    plan_repair,
    seed_repair,
)
from .recovery import BackgroundRecovery, run_recovery

__all__ = ["DistributedForgivingGraph"]


class _Quarantine:
    """Poison placeholder: any read of the quarantined state raises."""

    _message = "quarantined state was read"

    def _trip(self, what: str):
        raise AssertionError(f"{self._message} ({what})")

    def __getattr__(self, name):
        self._trip(name)

    def __iter__(self):
        self._trip("iter")

    def __len__(self):
        self._trip("len")

    def __getitem__(self, index):
        self._trip("getitem")

    def __bool__(self):
        self._trip("bool")


class _OracleQuarantine(_Quarantine):
    """Poison proving the repair path never reads the oracle's merge."""

    _message = "message-native repair consulted the reference engine's merge outcome"


class _PlanAuditQuarantine(_Quarantine):
    """Poison proving the recovery path never reads the plan's global knowledge.

    The repair plan's ``contexts`` map (every participant's knowledge) and
    ``all_summaries`` union are exactly what no single processor of the
    paper's model holds; the digest recovery must work without them, so
    ``quarantine_plan_audit`` replaces both with this poison before any
    reconvergence runs.
    """

    _message = (
        "message-native recovery consulted the repair plan's global knowledge"
    )


@dataclass
class _RepairRuntime:
    """Per-repair state kept for recovery driving and reference audits.

    ``victim`` / ``leader`` / ``degree`` / ``helpers_released`` are copied
    out of the plan at repair time so that nothing on the recovery or
    reporting path needs to read the plan again once its global knowledge
    has been quarantined.
    """

    plan: RepairPlan
    victim: NodeId
    leader: Optional[NodeId]
    degree: int
    helpers_released: int
    participants: List[NodeId] = field(default_factory=list)


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
        deletion finishes with a reconvergence pass (see ``auto_reconverge``).
    auto_reconverge:
        Run :meth:`reconverge` at the end of every ``delete`` when a fault
        schedule is active (on by default — the next adversarial move should
        find the network consistent, matching the paper's one-attack-at-a-
        time model).
    quarantine_oracle:
        After every oracle ``delete`` replace the engine's merge-outcome
        attributes with poison objects that raise on access — a structural
        proof that the measured repair path never reads them.  Used by the
        message-native merge and recovery tests.
    quarantine_plan_audit:
        After every repair replace the plan's *global* knowledge (the
        per-participant context map and the all-pieces union — exactly what
        no single processor holds) with poison objects, so any reconvergence
        that follows provably runs on gossip digests alone.  Used by the
        recovery tests and experiment E12; the plan-based
        :meth:`_audit_reference` naturally raises under it.
    """

    name = "distributed_forgiving_graph"

    def __init__(
        self,
        fault_schedule: Optional[FaultSchedule] = None,
        auto_reconverge: bool = True,
        quarantine_oracle: bool = False,
        quarantine_plan_audit: bool = False,
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
        self.quarantine_oracle = quarantine_oracle
        self.quarantine_plan_audit = quarantine_plan_audit
        self._runtime: Optional[_RepairRuntime] = None

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_graph(cls, graph: nx.Graph, **kwargs) -> "DistributedForgivingGraph":
        """Build the distributed healer from an initial networkx graph ``G_0``."""
        healer = cls(**kwargs)
        for node in graph.nodes:
            healer._bootstrap_node(node)
        for u, v in graph.edges:
            healer._bootstrap_edge(u, v)
        return healer

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[NodeId, NodeId]], nodes: Iterable[NodeId] = (), **kwargs
    ) -> "DistributedForgivingGraph":
        """Build the distributed healer from an initial edge list."""
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        return cls.from_graph(graph, **kwargs)

    def _bootstrap_node(self, node: NodeId) -> None:
        # The network counts additions itself; ``verify_consistency``
        # cross-checks its ``n_ever`` against the engine's ``nodes_ever``.
        self._engine._add_initial_node(node)
        self.network.add_processor(node)

    def _bootstrap_edge(self, u: NodeId, v: NodeId) -> None:
        self._engine._add_initial_edge(u, v)
        # Pre-processing (Figure 1): each endpoint starts knowing its G_0
        # neighbours, i.e. runs Init(v) locally — no messages needed.  The
        # link is sourced by the real edge itself.
        self.network.add_link_source(real_source_key(u, v), u, v)
        self.network.processors[u].ensure_edge(v)
        self.network.processors[v].ensure_edge(u)

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
        diverge until :meth:`reconverge` restores the fixed point.
        """
        graph = nx.Graph()
        graph.add_nodes_from(self.network.processors)
        graph.add_edges_from(self.network.iter_links())
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
            self.network.add_link_source(real_source_key(node, neighbor), node, neighbor)
            processor.ensure_edge(neighbor)
            self.network.processors[neighbor].ensure_edge(node)
            self.network.send(InsertionNotice(sender=node, receiver=neighbor, inserted=node))
        if attach_to:
            self.network.deliver_round()

    def delete(self, node: NodeId) -> DeletionCostReport:
        """Adversarial deletion: heal the network and account for every message.

        The repair is planned from pre-deletion local knowledge, executed as
        messages, and measured off the victim's epoch window — O(repair)
        work throughout.  The oracle is read before the repair (the victim's
        ``G'`` degree, and the RTs ``plan_repair`` lays out), never by the
        message path.
        """
        degree = self._engine.g_prime_degree(node)
        self._uninstall_runtime()
        plan = plan_repair(self._engine, node)

        mark = self._byzantine_mark()
        metrics = self.network.metrics
        metrics.begin_epoch_window(node)

        # The oracle executes the same move (it owns the G'/alive bookkeeping
        # every consumer reads); its merge outcome is quarantined away from
        # the message path when paranoia is requested.
        self._engine.delete(node)
        self._poison_oracle()

        if self.network.has_processor(node):
            self.network.remove_processor(node)
        rounds = execute_repair(self.network, plan)

        window = metrics.end_epoch_window(node)
        self._runtime = _RepairRuntime(
            plan=plan,
            victim=plan.victim,
            leader=plan.leader,
            degree=degree,
            helpers_released=sum(
                len(context.released) for context in plan.contexts.values()
            ),
            participants=[p for p in plan.contexts if self.network.has_processor(p)],
        )
        self._poison_plan(plan)
        recon: Optional[RecoveryCostReport] = None
        if self.network.fault_schedule is not None and self.auto_reconverge:
            recon = self.reconverge()

        byzantine = self._byzantine_report(mark)
        outcome = self._leader_outcome()
        report = DeletionCostReport(
            deleted_node=node,
            degree=degree,
            n_ever=self._engine.nodes_ever,
            messages=window.messages,
            bits=window.bits,
            rounds=rounds,
            max_message_bits=window.max_message_bits,
            max_messages_per_node=window.max_messages_per_node(),
            helpers_created=len(outcome.helpers) if outcome is not None else 0,
            helpers_released=self._runtime.helpers_released,
            # All of this deletion's losses: the repair window's plus any
            # suffered while reconverging (the window closes before recovery).
            dropped_messages=window.dropped
            + (recon.dropped if recon is not None else 0),
            retransmissions=recon.retransmissions if recon is not None else 0,
            reconvergence_rounds=recon.rounds if recon is not None else 0,
            converged=recon.converged if recon is not None else True,
            recovery=recon,
            byzantine=byzantine,
        )
        self.cost_reports.append(report)
        return report

    def _poison_oracle(self) -> None:
        """Under ``quarantine_oracle``, poison the engine's merge outcome."""
        if self.quarantine_oracle:
            self._engine.last_repair_rt = _OracleQuarantine()
            self._engine.last_new_helpers = _OracleQuarantine()
            self._engine.last_released_helper_ports = _OracleQuarantine()

    def _poison_plan(self, plan: RepairPlan) -> None:
        """Under ``quarantine_plan_audit``, poison the plan's global knowledge.

        From here on any recovery of the plan's repair must run on gossip
        digests alone.
        """
        if self.quarantine_plan_audit:
            plan.contexts = _PlanAuditQuarantine()
            plan.all_summaries = _PlanAuditQuarantine()

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
        into an admission **wave**, and runs the
        whole wave's repairs inside one shared ``deliver_round`` stream:
        every message carries its repair's victim as epoch tag, handler
        state is epoch-keyed, and per-epoch metrics windows attribute each
        message to its repair.  Overlapping footprints queue and are
        re-planned once their predecessors complete (the predecessor's
        repair changes the RT structure the successor's plan must read).
        Anti-entropy is folded into the background: once a repair's
        deadline passes, its participants gossip digest chunks *inside the
        same loop* (see :class:`~repro.distributed.recovery
        .BackgroundRecovery`), and the first sweep after every
        ``recovery_satisfied`` predicate holds is recorded as the
        fixed-point probe — provably empty on the lossless path.

        ``concurrency=1`` is the retained reference path: it literally
        loops :meth:`delete`, so it is bit-identical to sequential deletes
        under every delivery preset.  Burst cost trends to ~max, not ~sum,
        of the individual repair latencies
        (``test_disjoint_burst_runs_in_one_wave_and_fewer_rounds``).
        """
        victims = list(dict.fromkeys(victims))
        if concurrency is not None and concurrency <= 1:
            reports = [self.delete(victim) for victim in victims]
            burst = BurstCostReport(
                victims=tuple(victims),
                concurrency=1,
                waves=len(victims),
                rounds=sum(r.rounds + r.reconvergence_rounds for r in reports),
                reports=reports,
                wave_sizes=tuple(1 for _ in victims),
            )
            self.burst_reports.append(burst)
            return burst

        self._uninstall_runtime()
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
            wave_reports, wave_rounds = self._run_wave(
                [(victim, plans[victim]) for victim in wave],
                max_rounds=max_rounds,
                max_sweeps=max_sweeps,
            )
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
        max_rounds: int,
        max_sweeps: int,
    ) -> Tuple[List[DeletionCostReport], int]:
        """Run one admission wave of disjoint repairs in a shared round loop."""
        network = self.network
        metrics = network.metrics
        mark = self._byzantine_mark()

        # Everything reporting needs is copied out of the plans now, so the
        # plan-audit quarantine can poison their global knowledge before a
        # single message flows.
        degrees = {victim: self._engine.g_prime_degree(victim) for victim, _ in wave}
        leaders = {victim: plan.leader for victim, plan in wave}
        released = {
            victim: sum(len(context.released) for context in plan.contexts.values())
            for victim, plan in wave
        }
        deadlines = {victim: plan.max_deadline for victim, plan in wave}

        # Admission: the whole wave dies in one adversarial move — oracle
        # deletes first (mirroring ``delete``), then every repair seeds its
        # Phase 0/1 into the same open scaffold.
        for victim, _ in wave:
            self._engine.delete(victim)
            self._poison_oracle()
            if network.has_processor(victim):
                network.remove_processor(victim)
        network.begin_scaffold()
        participants_by_victim: Dict[NodeId, List[NodeId]] = {}
        union_participants: List[NodeId] = []
        seen: Set[NodeId] = set()
        for victim, plan in wave:
            metrics.begin_epoch_window(victim)
            participants = seed_repair(network, plan)
            participants_by_victim[victim] = participants
            for node in participants:
                if node not in seen:
                    seen.add(node)
                    union_participants.append(node)

        repair_windows: Dict[NodeId, MetricsWindow] = {}
        recoveries: List[BackgroundRecovery] = []
        if self.auto_reconverge:
            for victim, _ in wave:

                def _roll_window(victim: NodeId = victim) -> None:
                    # The repair phase is quiet: everything this epoch sends
                    # from here on is anti-entropy, attributed to its own
                    # recovery window.
                    repair_windows[victim] = metrics.end_epoch_window(victim)
                    metrics.begin_epoch_window(victim)

                recoveries.append(
                    BackgroundRecovery(
                        network,
                        victim=victim,
                        participants=participants_by_victim[victim],
                        degree=degrees[victim],
                        n_ever=self._engine.nodes_ever,
                        deadline=deadlines[victim],
                        max_sweeps=max_sweeps,
                        on_start=_roll_window,
                    )
                )
        for _, plan in wave:
            self._poison_plan(plan)

        # The shared round loop: all epochs' probes, reports, merges,
        # assignments and digests interleave in the same delivery stream.
        shared_deadline = max(deadlines.values(), default=1)
        rounds = 1
        while (
            network.in_flight
            or rounds < shared_deadline
            or any(not recovery.finished for recovery in recoveries)
        ):
            if rounds >= max_rounds:
                break
            network.deliver_round()
            rounds += 1
            network.tick(rounds, union_participants)
            for recovery in recoveries:
                recovery.step(rounds)

        # Budget exhaustion is loud, exactly like the standalone recovery:
        # per-epoch leftovers are measured, then the traffic is discarded
        # (the drops land in whichever epoch window is open for the victim).
        leftovers: Dict[NodeId, int] = {}
        if network.in_flight or any(not recovery.finished for recovery in recoveries):
            for recovery in recoveries:
                if not recovery.finished:
                    leftovers[recovery.victim] = network.in_flight_for(recovery.victim)
                    recovery.finish(rounds)
            network.drop_in_flight()
        network.end_scaffold()

        byzantine = self._byzantine_report(mark)
        recovery_by_victim = {recovery.victim: recovery for recovery in recoveries}
        wave_reports: List[DeletionCostReport] = []
        for victim, _ in wave:
            repair_window = repair_windows.pop(victim, None)
            if repair_window is None:
                # Recovery never reached its quiet point (or is disabled):
                # the epoch window still holds the repair attribution.
                repair_window = metrics.end_epoch_window(victim)
                recovery_window = MetricsWindow()
            else:
                recovery_window = metrics.end_epoch_window(victim)
            recovery = recovery_by_victim.get(victim)
            recon: Optional[RecoveryCostReport] = None
            if recovery is not None:
                recon = recovery.report(
                    recovery_window, leftover=leftovers.get(victim, 0)
                )
                self.recovery_reports.append(recon)
            outcome = self._outcome_of(leaders[victim], victim)
            wave_reports.append(
                DeletionCostReport(
                    deleted_node=victim,
                    degree=degrees[victim],
                    n_ever=self._engine.nodes_ever,
                    messages=repair_window.messages,
                    bits=repair_window.bits,
                    # Shared wall clock: every repair of the wave rode the
                    # same rounds (the burst's cost ≈ max story).
                    rounds=rounds,
                    max_message_bits=repair_window.max_message_bits,
                    max_messages_per_node=repair_window.max_messages_per_node(),
                    helpers_created=len(outcome.helpers) if outcome is not None else 0,
                    helpers_released=released[victim],
                    dropped_messages=repair_window.dropped
                    + (recon.dropped if recon is not None else 0),
                    retransmissions=recon.retransmissions if recon is not None else 0,
                    reconvergence_rounds=recon.rounds if recon is not None else 0,
                    converged=recon.converged if recon is not None else True,
                    recovery=recon,
                    byzantine=None,
                )
            )
        if byzantine is not None and wave_reports:
            # Wave-level accountability deltas ride the wave's last report
            # (attaching to each would double-count under aggregation).
            wave_reports[-1] = dataclasses.replace(wave_reports[-1], byzantine=byzantine)

        for victim, _ in wave:
            for node in participants_by_victim[victim]:
                processor = network.processors.get(node)
                if processor is not None:
                    processor.uninstall_repair(victim)
        self.cost_reports.extend(wave_reports)
        return wave_reports, rounds

    def _outcome_of(self, leader: Optional[NodeId], victim: NodeId):
        """One repair's leader merge outcome, read through its processor."""
        if leader is None:
            return None
        processor = self.network.processors.get(leader)
        if processor is None:
            return None
        context = processor.repairs.get(victim)
        return context.outcome if context is not None else None

    def _leader_outcome(self):
        """The leader's current merge outcome, read through its processor.

        Reporting reads the leader's *own* context as installed on its
        processor (never the plan's context map, which may be quarantined).
        """
        runtime = self._runtime
        if runtime is None or runtime.leader is None:
            return None
        return self._outcome_of(runtime.leader, runtime.victim)

    def _uninstall_runtime(self) -> None:
        """Retire the previous repair's contexts before planning the next one."""
        runtime, self._runtime = self._runtime, None
        if runtime is None:
            return
        for node in runtime.participants:
            processor = self.network.processors.get(node)
            if processor is not None:
                processor.uninstall_repair(runtime.victim)

    # ------------------------------------------------------------------ #
    # reconvergence (gossip-digest anti-entropy, message-native)
    # ------------------------------------------------------------------ #
    def reconverge(self, max_rounds: int = 600, max_sweeps: int = 40) -> RecoveryCostReport:
        """Drive the last repair's distributed state back to a fixed point.

        A thin driver over :func:`repro.distributed.recovery.run_recovery`:
        participants gossip compact digests of their *own* repair state
        along spine/anchor links (real messages through
        ``Network.deliver_round``, so faults hit recovery traffic too) and
        retransmit exactly what their neighbours' digests show missing; the
        leader re-merges under a higher epoch when digests surface
        unreported pieces.  A sweep that carried digests only is the silent
        fixed point.  With any fault probability below one, termination is
        almost sure, every run is deterministic given the fault schedule's
        seed, and exhausting ``max_rounds`` mid-delivery is reported
        (``converged=False`` plus the discarded in-flight count), never
        silently swallowed.
        """
        runtime = self._runtime
        if runtime is None:
            return RecoveryCostReport(
                victim=None, degree=0, n_ever=self._engine.nodes_ever, converged=True
            )
        report = run_recovery(
            self.network,
            victim=runtime.victim,
            participants=runtime.participants,
            degree=runtime.degree,
            n_ever=self._engine.nodes_ever,
            max_rounds=max_rounds,
            max_sweeps=max_sweeps,
        )
        self.recovery_reports.append(report)
        return report

    # ------------------------------------------------------------------ #
    # the retained plan-based audit (an oracle, never on the recovery path)
    # ------------------------------------------------------------------ #
    def audit_reference(self) -> List:
        """Run the plan-based global audit for the last repair (oracle only).

        Returns the retransmissions the old god's-eye audit would still
        want — an empty list certifies the digest recovery reached the same
        fixed point the global audit recognizes.  Used by the equivalence
        tests as a ``verify_consistency``-style check; it reads the plan's
        global knowledge, so it *raises* under ``quarantine_plan_audit``
        (which is exactly the structural proof the recovery tests want).
        """
        runtime = self._runtime
        if runtime is None:
            return []
        return self._audit_reference(runtime.plan)

    def _audit_reference(self, plan: RepairPlan) -> List:
        """One global audit pass: the retransmissions the repair still needs.

        The seed-era detection, retained as an oracle: it walks *every*
        participant's plan context and the full piece union — knowledge no
        single processor of the paper's model holds — which is why the
        digest protocol replaced it on the recovery path.
        """
        resends: List = []
        network = self.network
        victim = plan.victim
        leader = plan.leader
        leader_context = plan.contexts.get(leader) if leader is not None else None

        # (1) Strip knowledge that never applied: resend the probe.
        for node, context in plan.contexts.items():
            if not context.stripped and (context.released or context.glue):
                sender = leader if leader is not None else node
                resends.append(
                    Probe(sender=sender, receiver=node, deleted=victim, hops=0)
                )

        if leader_context is None:
            return resends

        # (2) Pieces the leader never learnt about: their owners re-offer them.
        known = set(leader_context.gathered)
        for summary in plan.all_summaries:
            if summary not in known:
                resends.append(
                    PrimaryRootList(
                        sender=summary.root_port.processor,
                        receiver=leader,
                        deleted=victim,
                        roots=(summary,),
                    )
                )
        outcome = leader_context.outcome
        if outcome is None or set(outcome.summaries) != set(leader_context.gathered):
            # The leader has (or just regained) more knowledge than its last
            # merge used; nudge it to re-merge by re-offering anything known.
            if outcome is not None and not any(
                isinstance(m, PrimaryRootList) for m in resends
            ):
                refresh = next(iter(leader_context.gathered), None)
                if refresh is not None:
                    resends.append(
                        PrimaryRootList(
                            sender=leader, receiver=leader, deleted=victim, roots=(refresh,)
                        )
                    )
            return resends

        # (3) Outcome instructions that never applied (or were superseded).
        epoch = leader_context.epoch
        current_ports = outcome.helper_ports()
        for helper in outcome.helpers:
            record = self._record_of(helper.port)
            applied = (
                record is not None
                and record.has_helper
                and record.helper_victim == victim
                and record.helper_left == helper.left_port
                and record.helper_right == helper.right_port
                and record.helper_parent == helper.parent_port
            )
            links_ok = all(
                network.has_link_source(key, u, v)
                for key, u, v in (
                    (link_source_key(helper.port, child), helper.port.processor, child.processor)
                    for child in (helper.left_port, helper.right_port)
                )
                if u != v
            )
            if not applied or not links_ok:
                resends.append(helper_assignment(leader, victim, helper, epoch))
        for child_port, child_is_leaf, parent_port in outcome.parent_updates:
            record = self._record_of(child_port)
            if record is None:
                continue
            applied = (
                record.helper_parent == parent_port
                if not child_is_leaf
                else record.rt_parent == parent_port
            )
            if not applied:
                resends.append(
                    parent_update(leader, victim, child_port, child_is_leaf, parent_port, epoch)
                )
        # (4) Assignments a re-merge superseded but that are still applied.
        for port in leader_context.instructed:
            if port in current_ports:
                continue
            record = self._record_of(port)
            if record is not None and record.has_helper and record.helper_victim == victim:
                resends.append(helper_retraction(leader, victim, port, epoch))
        return resends

    def _record_of(self, port: Port):
        processor = self.network.processors.get(port.processor)
        if processor is None:
            return None
        return processor.edges.get(port.neighbor)

    # ------------------------------------------------------------------ #
    # oracle resync (the retained full-diff reference path)
    # ------------------------------------------------------------------ #
    def _sync_links_reference(self) -> None:
        """Rebuild the sourced link set from the oracle — a full O(n + m) diff.

        The seed-era link sync, retained as the ground truth the
        message-native maintenance is equivalence-tested against (the tests
        assert it is a *no-op* after lossless repairs) and as a last-resort
        recovery: it reconstitutes every link source — real edges and RT
        virtual edges — exactly as the message flow would have.
        """
        expected: Dict[frozenset, Set[Tuple]] = {}
        engine = self._engine
        alive = engine.alive_nodes
        for u, v in engine.g_prime_graph_view().edges:
            if u in alive and v in alive:
                expected.setdefault(frozenset((u, v)), set()).add(real_source_key(u, v))
        for rt in engine.reconstruction_trees():
            for parent, child in rt.virtual_edges():
                p, c = parent.processor, child.processor
                if p != c:
                    parent_port = parent.port if isinstance(parent, RTLeaf) else parent.simulated_by
                    child_port = child.port if isinstance(child, RTLeaf) else child.simulated_by
                    expected.setdefault(frozenset((p, c)), set()).add(
                        link_source_key(parent_port, child_port)
                    )
        network = self.network
        for link in {frozenset(pair) for pair in network.iter_links()} - set(expected):
            u, v = tuple(link)
            network.disconnect(u, v)
        network.replace_link_sources(expected)
        for link in expected:
            u, v = tuple(link)
            if network.has_processor(u) and network.has_processor(v):
                network.connect(u, v)

    # ------------------------------------------------------------------ #
    # consistency between distributed state and the reference engine
    # ------------------------------------------------------------------ #
    def verify_consistency(self) -> None:
        """Check that the distributed state matches the reference oracle.

        Four families of checks, all raising
        :class:`InvariantViolationError` on mismatch: the network's
        addition-counted ``n_ever`` must equal the engine's ``nodes_ever``
        (the engine-driven cross-check of the message-sizing ``n``); the
        message-maintained link set must equal the healed graph's edge set;
        every link's *source multiplicity* must equal the engine's edge
        multiplicity (the distributed twin of the incremental ``G``
        bookkeeping); and for every helper node the engine maintains, the
        simulating processor must have ``has_helper`` set with the matching
        children pointers, with no processor claiming a helper the engine
        does not know about.
        """
        if self.network.n_ever != self._engine.nodes_ever:
            raise InvariantViolationError(
                f"network counted {self.network.n_ever} processors ever, "
                f"engine has seen {self._engine.nodes_ever} nodes"
            )

        healed_edges = {frozenset(edge) for edge in self._engine.actual_view().edges}
        links = {frozenset(link) for link in self.network.iter_links()}
        if links != healed_edges:
            missing = healed_edges - links
            extra = links - healed_edges
            raise InvariantViolationError(
                f"link set diverges from the healed graph "
                f"(missing={len(missing)}, unexpected={len(extra)})"
            )
        for key, count in self._engine._edge_mult.items():
            u, v = tuple(key)
            have = self.network.link_source_count(u, v)
            if have != count:
                raise InvariantViolationError(
                    f"link ({u!r}, {v!r}) has {have} message-tracked sources, "
                    f"engine counts multiplicity {count}"
                )

        engine_helpers: Dict[Port, RTHelper] = {}
        for rt in self._engine.reconstruction_trees():
            engine_helpers.update(rt.helpers)

        recorded: Dict[Port, Tuple[Optional[Port], Optional[Port]]] = {}
        for node_id, processor in self.network.processors.items():
            for neighbor, record in processor.edges.items():
                if record.has_helper:
                    recorded[Port(node_id, neighbor)] = (record.helper_left, record.helper_right)

        missing = set(engine_helpers) - set(recorded)
        if missing:
            raise InvariantViolationError(
                f"{len(missing)} helper nodes are unknown to their processors: {sorted(map(str, missing))[:5]}"
            )
        extra = set(recorded) - set(engine_helpers)
        if extra:
            raise InvariantViolationError(
                f"{len(extra)} processors claim helpers the engine does not have: {sorted(map(str, extra))[:5]}"
            )
        for port, helper in engine_helpers.items():
            left, right = recorded[port]
            expected_left = helper.left.port if isinstance(helper.left, RTLeaf) else helper.left.simulated_by
            expected_right = helper.right.port if isinstance(helper.right, RTLeaf) else helper.right.simulated_by
            if left != expected_left or right != expected_right:
                raise InvariantViolationError(
                    f"helper {port} child pointers diverge between processor and engine"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedForgivingGraph(alive={self.num_alive}, ever={self.nodes_ever}, "
            f"messages={self.network.metrics.total_messages})"
        )
