"""Workload drivers and correctness checks of the healer benchmark.

One *pass* builds a workload's inputs from its seed, sets the healer up,
plays the whole closed-loop move script (each move waits for its repair, the
paper's one-attack-at-a-time model) and then checks the outcome.  Passes
with one seed do exactly the same work, so their count metrics must agree.

The program is called only through module and class attributes
(``graphs.make_graph``, ``invariants.guarantee_report``, ...), so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import gc
import json
import random
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.adversary import AttackSchedule, MaxDegreeDeletion, RandomInsertion
from repro.analysis import invariants
from repro.analysis.fastpaths import MeasurementSession
from repro.core.errors import ForgivingGraphError
from repro.distributed import fault_schedule
from repro.distributed.simulator import DistributedForgivingGraph
from repro.engine import AttackSession
from repro.generators import graphs
from repro.service import HealerDaemon, ServiceConfig

#: The degree-increase bound tier-1 enforces.  The paper promises 3 (the
#: repo's ``degree_bound()``), which the max-degree attack exceeds: see
#: README.md, "The degree factor gap".
DEGREE_FACTOR_LIMIT = 4.0
#: BFS sources sampled per stretch measurement (``AttackSession``'s default).
STRETCH_SOURCES = 48
#: Iterations of the fixed pure-Python loop that gauges the host's speed.
GAUGE_LOOPS = 4000
#: The gauge loop's time on the reference host: one uncontended x86-64 core
#: running CPython 3 at the benchmark host's fast speed.  Scaled times are
#: what a piece would take there.
GAUGE_REFERENCE_S = 2.0e-4


class SpeedGauge:
    """Scales each timed piece to the reference host's speed.

    A shared host runs this single thread at one of a few speeds, 1x to
    about 1.7x slower, and switches between them every fraction of a second
    or holds one for minutes.  CPU time moves with wall time, so this is not
    waiting but a slower core.  The gauge times a fixed loop right before and
    right after each timed piece and scales the piece by the reference time
    over the mean of the two.  The loop runs outside every timed piece; its
    samples are kept so that a pass can leave their time out of its wall time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._before = GAUGE_REFERENCE_S

    def _loop(self) -> float:
        began = perf_counter()
        total = 0
        for i in range(GAUGE_LOOPS):
            total += i % 7
        elapsed = perf_counter() - began
        self.samples.append(elapsed)
        return elapsed

    def start(self) -> None:
        """Gauge the host right before a timed piece."""
        self._before = self._loop()

    def scale(self) -> float:
        """Gauge the host right after the piece; the factor to reference speed."""
        return 2.0 * GAUGE_REFERENCE_S / (self._before + self._loop())


def load_catalog(path: Path) -> Dict[str, dict]:
    """``{workload name: current version}`` from the versioned catalog."""
    catalog = json.loads(path.read_text())
    current = {}
    for workload in catalog["workloads"]:
        versions = {entry["version"]: entry for entry in workload["versions"]}
        current[workload["name"]] = versions[workload["current"]]
    return current


@dataclass
class PassResult:
    """What one pass measured and which of its checks failed.

    Every time is scaled to the reference host's speed by the pass's
    ``SpeedGauge``.
    """

    setup_s: float = 0.0
    #: The timed churn, piece by piece in seconds: every move plus the
    #: measurement ticks an ``AttackSession`` would take (attack), or every
    #: submit and pump (service).
    churn: List[float] = field(default_factory=list)
    delete_ms: List[float] = field(default_factory=list)
    insert_ms: List[float] = field(default_factory=list)
    queue_wait_ms: List[float] = field(default_factory=list)
    restore_s: Optional[float] = None
    deletions: int = 0
    insertions: int = 0
    attempted: int = 0
    failed: int = 0
    #: Exact per-pass counts: deleted nodes, messages, bits, rounds.
    counts: Dict[str, int] = field(default_factory=dict)
    peak_stretch: float = 0.0
    peak_degree_factor: float = 0.0
    nodes_ever: int = 0
    #: Retained heap at the end of the pass (only when traced by tracemalloc).
    heap_bytes: Optional[int] = None
    gauge: SpeedGauge = field(default_factory=SpeedGauge)
    problems: List[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def fail_op(self, text: str) -> None:
        self.failed += 1
        self.problem(text)

    def fingerprint(self) -> tuple:
        """The values that must repeat exactly between passes of one seed."""
        return (
            tuple(sorted(self.counts.items())),
            self.deletions,
            self.insertions,
            self.peak_stretch,
            self.peak_degree_factor,
        )


class ProcessorView:
    """The healer as its processors hold it: the healed graph is the link set."""

    name = "processors"

    def __init__(self, healer: DistributedForgivingGraph) -> None:
        self._healer = healer
        self._graph = healer.network_graph()
        self.alive_nodes = healer.alive_nodes
        self.nodes_ever = healer.nodes_ever
        self.num_alive = healer.num_alive

    def actual_graph(self):
        return self._graph

    def g_prime_graph_view(self):
        return self._healer.g_prime_graph_view()


def _observe(result: PassResult, report, view: str) -> None:
    result.peak_stretch = max(result.peak_stretch, report.stretch)
    result.peak_degree_factor = max(result.peak_degree_factor, report.degree_factor)
    if not report.connected:
        result.problem(f"{view} view lost connectivity (n_ever={report.n_ever})")
    if not report.stretch_ok:
        result.problem(
            f"{view} view stretch {report.stretch:.3f} exceeds log2 n = {report.stretch_bound:.3f}"
        )
    if report.degree_factor > DEGREE_FACTOR_LIMIT + 1e-9:
        result.problem(
            f"{view} view degree factor {report.degree_factor:.3f} exceeds {DEGREE_FACTOR_LIMIT}"
        )


def _check_processor_view(result: PassResult, healer, seed: int) -> None:
    """Connectivity, stretch and degree measured on the processors' own links."""
    report = invariants.guarantee_report(
        ProcessorView(healer), max_sources=STRETCH_SOURCES, seed=seed
    )
    _observe(result, report, "processor")


def _check_healer(result: PassResult, healer, lossless: bool) -> None:
    """The end-of-pass checks: oracle agreement, fixed point, Lemma 4 budgets."""
    try:
        healer.verify_consistency()
    except ForgivingGraphError as exc:
        result.problem(f"verify_consistency failed: {exc}")
    wanted = healer.audit_reference()
    if wanted:
        result.problem(f"audit_reference still wants {len(wanted)} retransmissions")
    in_burst = {id(report) for burst in healer.burst_reports for report in burst.reports}
    for report in healer.cost_reports:
        if not report.converged:
            result.fail_op(f"deletion of {report.deleted_node!r} ended converged=False")
        if not report.within_message_budget:
            result.problem(
                f"deletion of {report.deleted_node!r}: {report.messages} messages over "
                f"the Lemma 4 budget {report.message_budget:.0f}"
            )
        if not report.within_round_budget:
            result.problem(
                f"deletion of {report.deleted_node!r}: {report.rounds} rounds over "
                f"the Lemma 4 budget {report.round_budget:.0f}"
            )
        if lossless and id(report) in in_burst:
            probe = report.recovery.fixed_point_messages if report.recovery else None
            if probe != 0:
                result.problem(
                    f"lossless burst deletion of {report.deleted_node!r}: fixed-point "
                    f"probe sent {probe} messages, expected 0"
                )


def _add_costs(counts: Dict[str, int], healer) -> None:
    """Repair plus recovery traffic of every deletion ``healer`` applied."""
    in_burst = {id(report) for burst in healer.burst_reports for report in burst.reports}
    for report in healer.cost_reports:
        counts["deleted"] += 1
        counts["messages"] += report.messages
        counts["bits"] += report.bits
        if report.recovery is not None:
            counts["messages"] += report.recovery.digest_messages + report.recovery.retransmissions
            counts["bits"] += report.recovery.digest_bits + report.recovery.retransmission_bits
        if id(report) not in in_burst:
            counts["rounds"] += report.rounds + report.reconvergence_rounds
    # A wave's repairs share their rounds, recovery included: count them once.
    counts["rounds"] += sum(burst.rounds for burst in healer.burst_reports)


def _new_counts() -> Dict[str, int]:
    return {"deleted": 0, "messages": 0, "bits": 0, "rounds": 0}


def _retained_heap(result: PassResult) -> None:
    """Heap still held from what ``tracemalloc`` traced; stops the tracing."""
    gc.collect()
    result.heap_bytes = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()


# --------------------------------------------------------------------------- #
# attack workloads: AttackSession over the distributed healer
# --------------------------------------------------------------------------- #
def _attack_schedule(params: dict, seed: int) -> AttackSchedule:
    if params["strategy"] == "max_degree":
        return AttackSchedule(
            steps=params["moves"],
            deletion_strategy=MaxDegreeDeletion(),
            delete_probability=1.0,
            seed=seed,
        )
    return AttackSchedule(
        steps=params["moves"],
        insertion_strategy=RandomInsertion(k=params["insert_degree"], seed=seed),
        delete_probability=params["delete_probability"],
        burst_size=params["burst_size"],
        seed=seed,
    )


def attack_pass(params: dict, seed: int, heap: bool = False) -> PassResult:
    """One closed-loop attack through ``AttackSession`` with its checks.

    With ``heap`` the whole pass runs under ``tracemalloc``, which slows it,
    and the heap the finished attack retains is recorded.
    """
    result = PassResult()
    gauge = result.gauge
    if heap:
        tracemalloc.start()
    gauge.start()
    started = perf_counter()
    graph = graphs.make_graph(params["topology"], params["n"], seed=seed)
    options = {}
    if params["fault"] != "lossless":
        options["fault_schedule"] = fault_schedule(params["fault"], seed=seed)
    healer = DistributedForgivingGraph.from_graph(graph, **options)
    result.setup_s = (perf_counter() - started) * gauge.scale()

    session = AttackSession(
        healer, _attack_schedule(params, seed), measure_every=0, measure_final=False
    )
    measurement = MeasurementSession()

    def tick() -> None:
        # What AttackSession.measure_now does on its cadence, timed as churn;
        # the processor-view check after it is the benchmark's own.
        gauge.start()
        began = perf_counter()
        report = invariants.guarantee_report(
            healer, max_sources=STRETCH_SOURCES, seed=seed, session=measurement
        )
        healer.compact_journals()
        result.churn.append((perf_counter() - began) * gauge.scale())
        _observe(result, report, "oracle")
        _check_processor_view(result, healer, seed)

    moves = session.stream()
    played = 0
    while True:
        gauge.start()
        began = perf_counter()
        try:
            event = next(moves)
        except StopIteration:
            break
        except Exception as exc:  # a raising move is a failed op; the pass stops
            result.attempted += 1
            result.fail_op(f"move {played + 1} raised {exc!r}")
            break
        elapsed = (perf_counter() - began) * gauge.scale()
        result.churn.append(elapsed)
        result.attempted += 1
        played += 1
        if event.kind == "insert":
            result.insertions += 1
            result.insert_ms.append(elapsed * 1e3)
        else:
            result.deletions += len(event.victims) if event.victims else 1
            result.delete_ms.append(elapsed * 1e3)
        if played % params["measure_every"] == 0:
            tick()
    if played % params["measure_every"]:
        tick()

    _check_healer(result, healer, lossless=params["fault"] == "lossless")
    result.counts = _new_counts()
    _add_costs(result.counts, healer)
    result.nodes_ever = healer.nodes_ever
    if heap:
        _retained_heap(result)
    return result


# --------------------------------------------------------------------------- #
# service workload: HealerDaemon churn, crash, certified restore
# --------------------------------------------------------------------------- #
def _remove_store(db: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(str(db) + suffix).unlink(missing_ok=True)


def service_pass(params: dict, seed: int, workdir: Path, heap: bool = False) -> PassResult:
    """One service run: churn through two clients, crash, certified restore.

    With ``heap`` only the restore runs under ``tracemalloc``: it rebuilds
    the whole service state, so what it retains is the recovered service.
    """
    result = PassResult()
    gauge = result.gauge
    workdir.mkdir(parents=True, exist_ok=True)
    db = workdir / "service.db"
    _remove_store(db)
    config = ServiceConfig(
        graph=graphs.GraphSpec(params["topology"], params["n"]),
        seed=seed,
        checkpoint_every=params["checkpoint_every"],
        batch_window=params["batch_window"],
    )
    gauge.start()
    started = perf_counter()
    daemon = HealerDaemon.create(db, config)
    result.setup_s = (perf_counter() - started) * gauge.scale()

    rng = random.Random(seed)
    alive = sorted(daemon.healer.alive_nodes)
    next_id = max(alive) + 1
    clients = [daemon.client(f"client-{i}") for i in range(params["clients"])]
    measurement = MeasurementSession()

    def measure(healer) -> None:
        report = invariants.guarantee_report(
            healer, max_sources=STRETCH_SOURCES, seed=seed, session=measurement
        )
        _observe(result, report, "oracle")
        _check_processor_view(result, healer, seed)

    def submit(client) -> tuple:
        """Submit one seeded op; the alive list mirrors what the daemon will hold."""
        nonlocal next_id
        if rng.random() < params["insert_share"]:
            attach = rng.sample(alive, params["insert_degree"])
            node, next_id = next_id, next_id + 1
            alive.append(node)
            began = perf_counter()
            client.insert(node, attach)
            return "insert", began
        index = rng.randrange(len(alive))
        node = alive[index]
        alive[index] = alive[-1]
        alive.pop()
        began = perf_counter()
        client.delete(node)
        return "delete", began

    waiting: List[tuple] = []
    submits: List[float] = []
    pumps = 0
    try:
        for step in range(params["ops"]):
            # One gauge pair brackets each batch: a latency runs from its
            # submit to the end of the pump, so nothing may run in between.
            if not waiting:
                gauge.start()
            kind, began = submit(clients[step % len(clients)])
            submits.append(perf_counter() - began)
            result.attempted += 1
            waiting.append((kind, began))
            if (step + 1) % params["pump_every"] and step + 1 < params["ops"]:
                continue
            began = perf_counter()
            daemon.pump()
            done = perf_counter()
            scale = gauge.scale()
            result.churn += [seconds * scale for seconds in submits]
            result.churn.append((done - began) * scale)
            for kind, submitted in waiting:
                result.queue_wait_ms.append((began - submitted) * 1e3 * scale)
                if kind == "insert":
                    result.insertions += 1
                    result.insert_ms.append((done - submitted) * 1e3 * scale)
                else:
                    result.deletions += 1
                    result.delete_ms.append((done - submitted) * 1e3 * scale)
            waiting.clear()
            submits.clear()
            pumps += 1
            if pumps % params["measure_every_pumps"] == 0:
                measure(daemon.healer)
        measure(daemon.healer)
        # The crash: a journalled tail nobody pumps, then close without a checkpoint.
        for step in range(params["crash_tail"]):
            submit(clients[step % len(clients)])
            result.attempted += 1
    except Exception as exc:  # a raising op is a failed op; the pass stops
        result.attempted += 1
        result.fail_op(f"service op raised {exc!r}")
        daemon.close()
        return result
    crashed = daemon.healer
    daemon.close()
    del daemon

    if heap:
        gc.collect()
        tracemalloc.start()
    gauge.start()
    began = perf_counter()
    restored, restart = HealerDaemon.restore(db)
    result.restore_s = (perf_counter() - began) * gauge.scale()
    if heap:
        _retained_heap(result)
    result.attempted += 1
    if not (restart.converged and restart.audit_clean and restart.verified):
        result.fail_op(f"restore certification failed: {restart}")
    try:
        measure(restored.healer)
        _check_healer(result, crashed, lossless=True)
        _check_healer(result, restored.healer, lossless=True)
        result.counts = _new_counts()
        _add_costs(result.counts, crashed)
        _add_costs(result.counts, restored.healer)
        result.nodes_ever = restored.healer.nodes_ever
    finally:
        restored.close()
        _remove_store(db)
    return result


def run_pass(workload: dict, seed: int, workdir: Path, heap: bool = False) -> PassResult:
    """Dispatch one pass of a catalog workload version."""
    if workload["driver"] == "service":
        return service_pass(workload["params"], seed, workdir, heap)
    return attack_pass(workload["params"], seed, heap)
