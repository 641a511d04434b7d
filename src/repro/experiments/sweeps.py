"""Parameter sweeps: parallel multi-config execution on the session engine.

Sweeps are how the experiments and EXPERIMENTS.md show the *shape* of the
paper's claims: e.g. the degree factor staying flat while ``n`` grows, or
the stretch tracking ``log n`` rather than ``n``.

Every sweep is a list of :class:`SweepTask` objects — one fully-seeded
(config, healer) pair each — executed by :func:`run_sweep`:

* **serial** by default (``max_workers=None``), or **parallel** across a
  :class:`~concurrent.futures.ProcessPoolExecutor` when ``max_workers > 1``.
  Each task is deterministic given its config's seed, so results are
  bit-identical regardless of worker count or completion order; rows are
  returned in task order.
* optionally **streaming**: pass ``jsonl_path`` to append each finished row
  to a JSONL checkpoint the moment it lands
  (:class:`repro.experiments.reporting.JsonlReporter`); with ``resume=True``
  tasks whose key is already in the file are skipped, so an interrupted
  sweep picks up where it stopped.

The classic sweep constructors (:func:`sweep_graph_sizes`,
:func:`sweep_healers`, :func:`sweep_strategies`) build the task lists and
delegate to :func:`run_sweep`.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..core.ports import NodeId
from ..generators.graphs import GraphSpec
from .config import AttackConfig, ExperimentConfig
from .reporting import JsonlReporter, json_safe_row
from .runner import run_attack, run_healer_comparison

__all__ = [
    "SweepTask",
    "independent_repair_batches",
    "repair_footprint",
    "run_sweep",
    "select_disjoint_victims",
    "sweep_graph_sizes",
    "sweep_healers",
    "sweep_large_n",
    "sweep_strategies",
    "sweep_fault_presets",
]

Row = Dict[str, object]


@dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a fully-seeded experiment config plus a healer."""

    config: ExperimentConfig
    healer: str

    @property
    def key(self) -> str:
        """Deterministic checkpoint key (stable across processes and runs)."""
        described = self.config.describe()
        parts = [f"{k}={described[k]}" for k in sorted(described)]
        parts.append(f"healer={self.healer}")
        return "|".join(parts)


def _execute_task(task: SweepTask) -> Row:
    """Run one task to a flat row (module-level so worker processes can pickle it)."""
    return run_attack(task.config, task.healer).as_row()


def run_sweep(
    tasks: Sequence[SweepTask],
    *,
    max_workers: Optional[int] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> List[Row]:
    """Execute sweep tasks, optionally in parallel, optionally streaming JSONL.

    Parameters
    ----------
    tasks:
        The (config, healer) pairs to run.  Each must be deterministic given
        its config seed — that is what makes parallel execution and resume
        safe.
    max_workers:
        ``None``/``0``/``1`` runs serially in-process; anything larger fans
        tasks out over a process pool.
    jsonl_path:
        When given, every finished row is appended (and flushed) to this
        JSONL file as it completes, tagged with the task's checkpoint key.
    resume:
        With ``jsonl_path``: skip tasks whose key already has a row in the
        file, and include those prior rows in the returned list.

    Returns
    -------
    list of rows in *task order* (independent of completion order), with
    JSON-safe values and a uniform shape whether a row was computed this run
    or loaded from the resume checkpoint.  The ``task_key`` bookkeeping
    column lives only in the JSONL stream — returned rows stay clean for
    tables and CSVs.
    """
    reporter: Optional[JsonlReporter] = None
    rows_by_key: Dict[str, Row] = {}
    try:
        if jsonl_path is not None:
            reporter = JsonlReporter(jsonl_path, resume=resume)
            for row in reporter.existing_rows:
                key = row.get("task_key")
                if key is not None:
                    row = dict(row)
                    del row["task_key"]
                    rows_by_key[str(key)] = row

        pending = [t for t in tasks if t.key not in rows_by_key]

        def record(task: SweepTask, row: Row) -> None:
            # JSON-safe values so fresh rows match checkpoint-loaded ones.
            row = json_safe_row(row)
            rows_by_key[task.key] = row
            if reporter is not None:
                reporter.write(row, task_key=task.key)

        if max_workers is None or max_workers <= 1:
            for task in pending:
                record(task, _execute_task(task))
        else:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                futures = {pool.submit(_execute_task, task): task for task in pending}
                remaining = set(futures)
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    for future in done:
                        record(futures[future], future.result())
    finally:
        if reporter is not None:
            reporter.close()
    return [rows_by_key[task.key] for task in tasks]


# --------------------------------------------------------------------------- #
# classic sweep constructors
# --------------------------------------------------------------------------- #
def sweep_graph_sizes(
    name: str,
    topology: str,
    sizes: Sequence[int],
    attack: Optional[AttackConfig] = None,
    healer: str = "forgiving_graph",
    seed: int = 0,
    stretch_sources: Optional[int] = 48,
    graph_params: Optional[Dict[str, float]] = None,
    max_workers: Optional[int] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> List[Row]:
    """Run the same attack on the same topology family at several sizes.

    Returns one row per size; this is the sweep behind the ``log n`` scaling
    experiments (E3/E4 in DESIGN.md).
    """
    attack = attack if attack is not None else AttackConfig()
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                name=name,
                graph=GraphSpec(topology=topology, n=n, params=dict(graph_params or {})),
                attack=attack,
                healers=(healer,),
                seed=seed,
                stretch_sources=stretch_sources,
            ),
            healer=healer,
        )
        for n in sizes
    ]
    return run_sweep(tasks, max_workers=max_workers, jsonl_path=jsonl_path, resume=resume)


def sweep_healers(
    name: str,
    topology: str,
    n: int,
    healers: Sequence[str],
    attack: Optional[AttackConfig] = None,
    seed: int = 0,
    stretch_sources: Optional[int] = 48,
    graph_params: Optional[Dict[str, float]] = None,
    max_workers: Optional[int] = None,
) -> List[Row]:
    """Compare several healers on the identical initial graph and attack (E9).

    All healers must face the *same* initial graph, which
    :func:`repro.experiments.runner.run_healer_comparison` builds exactly
    once; serial by default, ``max_workers > 1`` selects its copy-per-worker
    parallel mode (each worker gets a deep copy of that one graph, rows stay
    bit-identical to the serial path).
    """
    config = ExperimentConfig(
        name=name,
        graph=GraphSpec(topology=topology, n=n, params=dict(graph_params or {})),
        attack=attack if attack is not None else AttackConfig(),
        healers=tuple(healers),
        seed=seed,
        stretch_sources=stretch_sources,
    )
    return [
        outcome.as_row()
        for outcome in run_healer_comparison(config, max_workers=max_workers)
    ]


def sweep_strategies(
    name: str,
    topology: str,
    n: int,
    strategies: Sequence[str],
    healer: str = "forgiving_graph",
    delete_fraction: float = 0.5,
    seed: int = 0,
    stretch_sources: Optional[int] = 48,
    max_workers: Optional[int] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> List[Row]:
    """Run one healer against several adversary strategies on the same topology."""
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                name=name,
                graph=GraphSpec(topology=topology, n=n),
                attack=AttackConfig(strategy=strategy, delete_fraction=delete_fraction),
                healers=(healer,),
                seed=seed,
                stretch_sources=stretch_sources,
            ),
            healer=healer,
        )
        for strategy in strategies
    ]
    return run_sweep(tasks, max_workers=max_workers, jsonl_path=jsonl_path, resume=resume)


def sweep_fault_presets(
    name: str,
    topology: str,
    n: int,
    presets: Sequence[str],
    delete_fraction: float = 0.4,
    seed: int = 0,
    stretch_sources: Optional[int] = 48,
    max_workers: Optional[int] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
) -> List[Row]:
    """Run the message-passing healer under several network fault presets.

    The fault axis of the sweep space (experiment E11): every task plays
    the identical attack on the identical topology, differing only in the
    seeded drop/delay/reorder schedule injected under the repair protocol —
    so the rows isolate what faulty links cost and confirm the guarantees
    survive reconvergence.
    """
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                name=name,
                graph=GraphSpec(topology=topology, n=n),
                attack=AttackConfig(
                    strategy="max_degree",
                    delete_fraction=delete_fraction,
                    fault_preset=preset,
                ),
                healers=("distributed_forgiving_graph",),
                seed=seed,
                stretch_sources=stretch_sources,
            ),
            healer="distributed_forgiving_graph",
        )
        for preset in presets
    ]
    return run_sweep(tasks, max_workers=max_workers, jsonl_path=jsonl_path, resume=resume)


# --------------------------------------------------------------------------- #
# sharded large-n sweeps
# --------------------------------------------------------------------------- #
def repair_footprint(healer, victim: NodeId) -> FrozenSet[NodeId]:
    """The processors one deletion's repair would touch, read from the plan.

    Wraps :func:`repro.distributed.protocol.plan_repair` — a read-only,
    pre-deletion inspection costing O(victim neighbourhood + broken glue) —
    and returns the participant set (every processor the plan hands a
    :class:`RepairContext`, plus the victim itself).  Two repairs whose
    footprints are disjoint share no spine, no anchor and no scaffold
    traffic, so they can heal in parallel without racing: this is the
    independence test :func:`independent_repair_batches` and the sharded
    sweeps build on.  Accepts the distributed healer or a bare engine.
    """
    from ..distributed.protocol import plan_repair

    engine = getattr(healer, "_engine", healer)
    plan = plan_repair(engine, victim)
    return frozenset(plan.contexts) | {victim}


def independent_repair_batches(
    footprints: Sequence[Tuple[NodeId, FrozenSet[NodeId]]],
) -> List[List[NodeId]]:
    """Greedily group repairs with pairwise-disjoint footprints into batches.

    ``footprints`` is a sequence of ``(victim, footprint)`` pairs (see
    :func:`repair_footprint`).  Returns batches of victims, in input order
    within each batch: every batch's footprints are pairwise disjoint, so
    its repairs touch disjoint spines and may run concurrently; successive
    batches must still run in sequence.  Greedy first-fit keeps the
    grouping deterministic (a victim lands in the earliest batch it does
    not collide with), which the sharded-sweep equivalence relies on.
    """
    batches: List[List[NodeId]] = []
    occupied: List[set] = []
    for victim, footprint in footprints:
        for index, taken in enumerate(occupied):
            if taken.isdisjoint(footprint):
                batches[index].append(victim)
                taken.update(footprint)
                break
        else:
            batches.append([victim])
            occupied.append(set(footprint))
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


def sweep_large_n(
    name: str,
    topology: str,
    total_nodes: int,
    shards: int,
    attack: Optional[AttackConfig] = None,
    healer: str = "distributed_forgiving_graph",
    seed: int = 0,
    stretch_sources: Optional[int] = 16,
    graph_params: Optional[Dict[str, float]] = None,
    max_workers: Optional[int] = None,
    jsonl_path: Optional[Union[str, Path]] = None,
    resume: bool = False,
    shared_network: bool = False,
    burst_width: int = 32,
    candidate_pool: int = 256,
) -> List[Row]:
    """Shard one large-n churn run into independent sub-networks and fan out.

    The million-node scaling path: ``total_nodes`` processors are split
    into ``shards`` near-equal disjoint sub-graphs, each built and churned
    as its own :class:`ExperimentConfig` task on the existing
    deterministic-seed pool (:func:`run_sweep`).  Disjoint node spaces are
    the coarse-grained form of the plan-footprint independence
    (:func:`repair_footprint`): repairs in different shards can never share
    a spine, so the shards are embarrassingly parallel and the row set is
    bit-identical at any worker count.  Each shard's seed is derived from
    ``seed`` and its index, so the sweep as a whole is reproducible and
    resumable (``jsonl_path`` / ``resume``) like any other sweep.

    Returns one row per shard; aggregate throughput (nodes/sec) is
    ``total_nodes / max(seconds)`` under a parallel pool and
    ``total_nodes / sum(seconds)`` serially.

    With ``shared_network=True`` the sharding is dropped entirely: the whole
    ``total_nodes`` graph is built as *one* :class:`DistributedForgivingGraph`
    and churned in-process through ``delete_batch`` waves — each burst is a
    pairwise-disjoint-footprint victim set (:func:`select_disjoint_victims`
    over a seeded random ``candidate_pool`` of degree >= 2 survivors, at most
    ``burst_width`` victims per burst), so every wave's repairs share one
    ``deliver_round`` stream on one message fabric instead of per-shard
    sub-networks.  ``shards``/``max_workers``/``resume`` are ignored in this
    mode; the return value is a single summary row: deletions, waves, rounds,
    the connectivity verdict, and the build, churn and verify phases timed
    separately (``deletions_per_sec`` divides by the churn time alone).
    """
    if shared_network:
        return _sweep_large_n_shared(
            name,
            topology,
            total_nodes,
            attack=attack,
            seed=seed,
            graph_params=graph_params,
            jsonl_path=jsonl_path,
            burst_width=burst_width,
            candidate_pool=candidate_pool,
        )
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if total_nodes < shards * 4:
        raise ValueError(
            f"total_nodes={total_nodes} too small to split into {shards} shards"
        )
    attack = attack if attack is not None else AttackConfig(
        strategy="max_degree", delete_fraction=0.4
    )
    base, excess = divmod(total_nodes, shards)
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                name=f"{name}-shard{index}",
                graph=GraphSpec(
                    topology=topology,
                    n=base + (1 if index < excess else 0),
                    params=dict(graph_params or {}),
                ),
                attack=attack,
                healers=(healer,),
                seed=seed * 1_000_003 + index,
                stretch_sources=stretch_sources,
            ),
            healer=healer,
        )
        for index in range(shards)
    ]
    return run_sweep(tasks, max_workers=max_workers, jsonl_path=jsonl_path, resume=resume)


def _sweep_large_n_shared(
    name: str,
    topology: str,
    total_nodes: int,
    *,
    attack: Optional[AttackConfig],
    seed: int,
    graph_params: Optional[Dict[str, float]],
    jsonl_path: Optional[Union[str, Path]],
    burst_width: int,
    candidate_pool: int,
) -> List[Row]:
    """One-network large-n churn: disjoint victim bursts through batch waves.

    The in-process complement of the sharded path: instead of splitting the
    node space, the entire graph lives on a single :class:`Network` (one
    outbox, one metrics ledger) and the loop repeatedly feeds
    ``delete_batch`` a first-fit disjoint-footprint victim set until the
    attack's deletion budget is spent.  Deterministic given
    ``seed``: candidate sampling, victim selection and every repair replay
    identically across runs.
    """
    import random
    import time as _time

    import networkx as nx

    from ..distributed.simulator import DistributedForgivingGraph

    if total_nodes < 8:
        raise ValueError(f"total_nodes={total_nodes} too small for a shared-network run")
    attack = attack if attack is not None else AttackConfig(
        strategy="random", delete_fraction=0.01, delete_probability=1.0
    )
    graph = GraphSpec(
        topology=topology, n=total_nodes, params=dict(graph_params or {})
    ).build(seed)
    build_start = _time.perf_counter()
    sim = DistributedForgivingGraph.from_graph(graph)
    build_seconds = round(_time.perf_counter() - build_start, 4)
    rng = random.Random(seed * 1_000_003 + 17)
    target = max(1, int(total_nodes * attack.delete_fraction))
    min_survivors = max(int(getattr(attack, "min_survivors", 2)), 2)
    deleted = 0
    waves = 0
    rounds = 0
    dry_bursts = 0
    churn_start = _time.perf_counter()
    while deleted < target and sim.num_alive > min_survivors and dry_bursts < 5:
        alive = sorted(sim.alive_nodes)
        pool = rng.sample(alive, min(candidate_pool, len(alive)))
        view = sim.actual_view()
        candidates = [node for node in pool if view.degree(node) >= 2]
        burst = select_disjoint_victims(
            sim, candidates, limit=min(burst_width, target - deleted)
        )
        if not burst:
            dry_bursts += 1
            continue
        dry_bursts = 0
        report = sim.delete_batch(burst)
        deleted += len(burst)
        waves += report.waves
        rounds += report.rounds
    churn_seconds = round(_time.perf_counter() - churn_start, 4)
    verify_start = _time.perf_counter()
    sim.verify_consistency()
    healed = sim.actual_view()
    connected = healed.number_of_nodes() == 0 or nx.is_connected(healed)
    verify_seconds = round(_time.perf_counter() - verify_start, 4)
    row: Row = {
        "name": name,
        "topology": topology,
        "healer": "distributed_forgiving_graph",
        "n": total_nodes,
        "seed": seed,
        "shared_network": True,
        "deletions": deleted,
        "deletion_target": target,
        "waves": waves,
        "rounds": rounds,
        "final_alive": sim.num_alive,
        "connected": bool(connected),
        "build_seconds": build_seconds,
        "churn_seconds": churn_seconds,
        "verify_seconds": verify_seconds,
        # The churn phase alone: building the network is bootstrap, not repair.
        "deletions_per_sec": round(deleted / churn_seconds, 2) if churn_seconds else 0.0,
    }
    if jsonl_path is not None:
        reporter = JsonlReporter(jsonl_path, resume=False)
        try:
            reporter.write(row, task_key=f"{name}|shared|n={total_nodes}|seed={seed}")
        finally:
            reporter.close()
    return [row]
