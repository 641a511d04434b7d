#!/usr/bin/env python
"""Regenerate BENCH_perf.json: seed-vs-fastpath timings of the hot paths.

The seed implementation paid a per-event measurement tax: every deletion
rebuilt the healed graph ``G`` from scratch, and every stretch measurement
copied both graphs and ran a dict-based networkx BFS per source.  PR 1 made
``G`` incremental and moved measurement onto CSR bitset BFS; PR 2 unified the
step loop into :class:`repro.engine.AttackSession`, made the targeted
adversaries incremental (heap + degree-touch journal instead of per-move
survivor sorts) and parallelized multi-config sweeps.  This script times the
retained seed/reference behaviours against the fast paths on identical
workloads and writes the results to ``BENCH_perf.json`` at the repo root so
each PR can track the trajectory.

Standalone by design — no pytest or pytest-benchmark needed::

    PYTHONPATH=src python scripts/perf_report.py            # full report
    PYTHONPATH=src python scripts/perf_report.py --quick    # skip n=5000
    PYTHONPATH=src python scripts/perf_report.py --smoke    # CI: tiny n, asserts >= 1x
    PYTHONPATH=src python scripts/perf_report.py --output /tmp/bench.json

Workloads
---------
``stretch_report``
    A seeded Erdős–Rényi graph with n/4 random deletions applied (so real RT
    structure exists), then one full stretch measurement.  Seed side:
    :func:`repro.analysis.stretch_report_reference`; fast side:
    :func:`repro.analysis.stretch_report`.

``churn_sweep``
    A delete-heavy (p_delete = 0.8) churn schedule with periodic Theorem 1
    measurements — the end-to-end shape of every experiment sweep, driven
    through one :class:`repro.engine.AttackSession`.  Seed side: an engine
    subclass that rebuilds ``G`` from scratch on every deletion plus
    copy-based reference measurement; fast side: the stock session cadence.

``adversary_step``
    A max-degree deletion attack, timing the adversary's victim choice: the
    retained sorted ``max_degree_reference`` scan vs the incremental
    heap/journal tracker.

``parallel_sweep``
    The same multi-config sweep executed serially (the PR 1 baseline path)
    and via ``run_sweep(max_workers=...)``, end-to-end wall clock.

``distributed_repair``
    A max-degree deletion attack on the message-passing simulator.  Seed
    side: the pre-refactor O(n + m)-per-deletion accounting (full graph
    copies for planning, full-diff link sync, full metrics snapshots); fast
    side: message-driven link maintenance and the per-repair metrics window.
    Both sides replay identical repairs, so the per-deletion
    message/bit/round reports must agree exactly.

``message_native_merge``
    Correctness gate (PR 4), not a speedup: a deletion attack with the
    reference engine's merge outcome *quarantined* (reading it raises), so
    the healed structure provably comes from messages alone; asserts the
    Lemma 4 budgets still hold without the oracle, that the message-built
    state equals the oracle under a lossless network, and that seeded
    drop/reorder fault schedules reconverge to the oracle (the
    ``--fault-schedule`` presets; the CI matrix runs one preset per job).

``message_native_recovery``
    Correctness gate (PR 5): the same attacks with the repair plan's
    *global knowledge* additionally poisoned (the per-participant context
    map and the all-pieces union — reading either raises), run under
    lossless and every fault preset.  Passing proves ``reconverge()``
    reached the fixed point on gossip digests alone, that the retained
    plan-based audit would indeed have raised, that the recovered state
    equals the oracle, and that the digest traffic stayed within its
    Lemma-4-style per-sweep budgets.

``byzantine_containment``
    Correctness gate (PR 6): deletion attacks with *byzantine* processors
    corrupting the payloads they send (descriptors, digest records,
    assignments — the ``--byzantine-schedule`` presets), both quarantines
    armed.  Passing proves the accountability transcript matches the
    oracle-side injection log exactly — every delivered lie accused, only
    genuine liars accused, zero accusations on honest runs under every
    delivery preset — that recovery still reaches its fixed point around
    the quarantined, and that verification costs essentially nothing on
    the honest lossless path (the smoke-floor timing check).

``concurrent_repairs``
    Correctness-plus-latency gate (PR 8): a burst of deletions with
    pairwise-disjoint repair footprints healed concurrently — every message
    epoch-tagged with its repair's victim, all repairs interleaved in one
    ``deliver_round`` stream, anti-entropy gossip piggybacked in the
    background.  Asserts the burst's rounds come in under 0.6x the
    sequential count (latency ~ max, not ~ sum), that
    ``delete_batch(concurrency=1)`` is bit-identical to sequential
    ``delete`` calls under every delivery preset, and that on the lossless
    path every epoch's recovery ends with an *empty* fixed-point probe (the
    silent-protocol property, measured).  ``--concurrent-schedule`` adds
    mixed-traffic rows (chaos delivery, byzantine lies) on the dedicated CI
    leg.

``large_n``
    What ``repro.experiments.sweep_large_n`` does at scale.  Three rows:
    *scale* — a sharded delete-heavy churn sweep (disjoint sub-networks on
    the deterministic-seed pool) reporting end-to-end nodes/sec;
    *transcript* — a hub-focused attack replayed at the default and a
    trimmed ``receive_trace_limit``, reporting retained receive-transcript
    messages and payload bytes (the knob that shrinks the per-processor
    dispute window at large n); *shared scale* —
    ``sweep_large_n(shared_network=True)``: one ``Network`` carrying the
    whole graph through ``delete_batch`` waves of disjoint-footprint victim
    bursts, with build, churn (``deletions_per_sec``) and the closing
    oracle check timed separately.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import networkx as nx

from repro import AttackSession, ForgivingGraph
from repro.adversary.schedule import churn_schedule
from repro.adversary.strategies import (
    MaxDegreeDeletion,
    MaxDegreeDeletionReference,
    RandomDeletion,
)
from repro.analysis import stretch_report, stretch_report_reference
from repro.analysis.fastpaths import HAVE_SCIPY
from repro.distributed import DistributedForgivingGraph
from repro.distributed.faults import (
    BYZANTINE_PRESETS,
    DELIVERY_PRESETS,
    FaultSpec,
    fault_schedule,
)
from repro.distributed.metrics import (
    DeletionCostReport,
    aggregate_byzantine,
    aggregate_recovery,
)
from repro.experiments import (
    AttackConfig,
    ExperimentConfig,
    SweepTask,
    run_sweep,
    sweep_large_n,
)
from repro.generators import GraphSpec, make_graph

#: Acceptance targets (checked by the report itself).
TARGET_STRETCH_SPEEDUP_N1000 = 10.0
TARGET_CHURN_SPEEDUP = 5.0
TARGET_ADVERSARY_SPEEDUP = 2.0
TARGET_PARALLEL_SPEEDUP = 1.3
TARGET_DISTRIBUTED_SPEEDUP_N1000 = 5.0
#: A disjoint k>=4 burst healed concurrently must finish in under this
#: fraction of the sequential round count (latency ~ max, not ~ sum).
TARGET_CONCURRENT_ROUND_RATIO = 0.6
#: Smoke mode (CI) only asserts "the fast path is not a regression"; the
#: sub-1.0 floor absorbs scheduling noise on tiny-n timings (shared runners).
TARGET_SMOKE_SPEEDUP = 0.7


# --------------------------------------------------------------------------- #
# seed-behaviour emulation
# --------------------------------------------------------------------------- #
class SeedStyleForgivingGraph(ForgivingGraph):
    """The stock engine plus the seed's per-deletion full rebuild of ``G``.

    The seed's ``delete()`` ran ``_compute_actual()`` after invalidating the
    cache, i.e. one from-scratch rebuild per deletion (more under churn, when
    interleaved inserts also invalidated the cache — emulating only one keeps
    the comparison conservative).  Healing semantics are untouched, so both
    sides of the comparison play identical attacks.
    """

    def delete(self, node):
        report = super().delete(node)
        self._rebuild_actual()
        return report


def _reference_connectivity(healer) -> bool:
    """The seed's connectivity check: graph copies + per-component dict BFS."""
    actual = healer.actual_graph()
    g_prime = healer.g_prime_view()
    alive = healer.alive_nodes
    for component in nx.connected_components(g_prime):
        alive_in_component = [node for node in component if node in alive]
        if len(alive_in_component) <= 1:
            continue
        root = alive_in_component[0]
        if root not in actual:
            return False
        reachable = nx.node_connected_component(actual, root)
        if any(other not in reachable for other in alive_in_component[1:]):
            return False
    return True


def _reference_degree_factor(healer) -> float:
    """The seed's degree metric: copies of both graphs, per-node ratios."""
    actual = healer.actual_graph()
    g_prime = healer.g_prime_view()
    worst = 0.0
    for node in healer.alive_nodes:
        d_prime = g_prime.degree[node] if node in g_prime else 0
        if d_prime == 0:
            continue
        d_actual = actual.degree[node] if node in actual else 0
        worst = max(worst, d_actual / d_prime)
    return worst


class SeedAccountingDistributedGraph(DistributedForgivingGraph):
    """The stock distributed healer plus the seed's per-deletion accounting.

    The seed's ``delete()`` paid O(n + m) of measurement per repair: full
    graph copies while planning, a full-counter ``snapshot()``, the full-diff
    oracle link resync (``_sync_links_reference`` rebuilds the healed graph
    and diffs the whole edge/source set), another healed-graph copy for the
    BT_v cleanup, and an all-nodes per-sender delta.  Repairs themselves are
    identical on both sides (this subclass delegates the actual repair to
    the stock message-native path), so the comparison isolates the
    accounting overhead the incremental path removed.  It also retains the
    seed's cumulative ``max_message_bits`` (a later cheap deletion inherited
    the run-wide maximum — the bug the per-repair window fixed), so that
    field is excluded from the equivalence check.
    """

    def delete(self, node):
        engine = self._engine
        engine.actual_graph()  # seed planning copied both graphs
        engine.g_prime_view()
        before = self.network.metrics.snapshot()

        fast_report = super().delete(node)

        engine.actual_graph()  # the seed BT_v cleanup's full healed-graph copy
        self._sync_links_reference()  # the seed's full-diff link sync

        after = self.network.metrics
        per_node_delta = {
            proc: after.messages_sent_by_node.get(proc, 0)
            - before.messages_sent_by_node.get(proc, 0)
            for proc in after.messages_sent_by_node
        }
        report = DeletionCostReport(
            deleted_node=node,
            degree=fast_report.degree,
            n_ever=engine.nodes_ever,
            messages=after.total_messages - before.total_messages,
            bits=after.total_bits - before.total_bits,
            rounds=fast_report.rounds,
            max_message_bits=after.max_message_bits,
            max_messages_per_node=max(per_node_delta.values(), default=0),
            helpers_created=fast_report.helpers_created,
            helpers_released=fast_report.helpers_released,
        )
        self.cost_reports[-1] = report
        return report


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
def _cost_report_key(report: DeletionCostReport):
    """The fields two replays of the identical repair must agree on exactly."""
    return (
        report.deleted_node,
        report.messages,
        report.bits,
        report.rounds,
        report.max_messages_per_node,
    )


def _churned_engine(n: int, seed: int, engine_cls=ForgivingGraph) -> ForgivingGraph:
    """An engine over a seeded ER graph with n/4 random deletions applied."""
    fg = engine_cls.from_graph(make_graph("erdos_renyi", n, seed=seed))
    strategy = RandomDeletion(seed=seed)
    for _ in range(n // 4):
        victim = strategy.choose_victim(fg)
        if victim is None or fg.num_alive <= 2:
            break
        fg.delete(victim)
    return fg


def _time(func: Callable[[], object], repeats: int = 1) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``func()``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_stretch(n: int, max_sources: Optional[int], seed: int = 20090214) -> Dict[str, object]:
    """Time seed vs fast ``stretch_report`` on one churned engine state."""
    fg = _churned_engine(n, seed)
    kwargs = {"max_sources": max_sources, "seed": 0}
    fast = stretch_report(fg, **kwargs)
    reference = stretch_report_reference(fg, **kwargs)
    if (
        fast.max_stretch != reference.max_stretch
        or fast.pairs_measured != reference.pairs_measured
        or fast.disconnected_pairs != reference.disconnected_pairs
    ):
        raise AssertionError(
            f"fast and reference stretch disagree at n={n}: {fast} vs {reference}"
        )
    seed_seconds = _time(lambda: stretch_report_reference(fg, **kwargs))
    fast_seconds = _time(lambda: stretch_report(fg, **kwargs), repeats=3)
    return {
        "n": n,
        "alive": fg.num_alive,
        "sources": max_sources if max_sources is not None else fg.num_alive,
        "max_stretch": fast.max_stretch,
        "seed_seconds": round(seed_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(seed_seconds / fast_seconds, 1) if fast_seconds else float("inf"),
    }


def bench_churn(n: int, stretch_sources: int = 32, seed: int = 20090214) -> Dict[str, object]:
    """Time the end-to-end churn sweep (one AttackSession), seed vs fast paths."""
    steps = min(n, 1000)
    interval = max(steps // 8, 1)

    def run_seed_side() -> None:
        # Seed emulation: per-deletion G rebuild + copy-based reference
        # measurement, driven through the same session step loop (periodic
        # measurement disabled; the reference measurement rides the stream).
        fg = SeedStyleForgivingGraph.from_graph(make_graph("erdos_renyi", n, seed=seed))
        schedule = churn_schedule(steps=steps, delete_probability=0.8, seed=seed)
        session = AttackSession(fg, schedule, measure_every=0, measure_final=False)
        for event in session.stream():
            if (event.deletions + event.insertions) % interval == 0:
                stretch_report_reference(fg, max_sources=stretch_sources, seed=seed)
                _reference_degree_factor(fg)
                _reference_connectivity(fg)
        stretch_report_reference(fg, max_sources=stretch_sources, seed=seed)
        _reference_degree_factor(fg)
        _reference_connectivity(fg)

    def run_fast_side() -> int:
        fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", n, seed=seed))
        schedule = churn_schedule(steps=steps, delete_probability=0.8, seed=seed)
        session = AttackSession(
            fg, schedule, stretch_sources=stretch_sources, seed=seed, measure_every=interval
        )
        result = session.run()
        return result.steps // interval + 1

    start = time.perf_counter()
    run_seed_side()
    seed_seconds = time.perf_counter() - start

    start = time.perf_counter()
    measurements = run_fast_side()
    fast_seconds = time.perf_counter() - start

    return {
        "n": n,
        "steps": steps,
        "delete_probability": 0.8,
        "stretch_sources": stretch_sources,
        "measurements": measurements,
        "seed_seconds": round(seed_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "speedup": round(seed_seconds / fast_seconds, 1) if fast_seconds else float("inf"),
    }


def bench_adversary_step(n: int, seed: int = 20090214) -> Dict[str, object]:
    """Time the targeted attack: sorted reference adversary vs heap tracker.

    Both sides play the identical max-degree deletion attack (the strategies
    are equivalence-pinned).  ``choose_*`` columns isolate the victim choice
    itself — the O(n log n)-per-move survivor sort the incremental tracker
    replaces with O(delta log n) journal drains; ``seed_/fast_seconds`` time
    the whole attack end-to-end (victim choice + repair), i.e. the speedup a
    targeted sweep sees over the PR 1 baseline path.
    """
    steps = min(n // 2, 1000)

    def attack(strategy) -> Dict[str, float]:
        fg = ForgivingGraph.from_graph(make_graph("erdos_renyi", n, seed=seed))
        choosing = 0.0
        total_start = time.perf_counter()
        for _ in range(steps):
            start = time.perf_counter()
            victim = strategy.choose_victim(fg)
            choosing += time.perf_counter() - start
            if victim is None or fg.num_alive <= 2:
                break
            fg.delete(victim)
        return {"total": time.perf_counter() - total_start, "choose": choosing}

    reference = attack(MaxDegreeDeletionReference())
    incremental = attack(MaxDegreeDeletion())
    return {
        "n": n,
        "steps": steps,
        "strategy": "max_degree",
        "choose_seed_seconds": round(reference["choose"], 4),
        "choose_fast_seconds": round(incremental["choose"], 4),
        "choose_speedup": (
            round(reference["choose"] / incremental["choose"], 1) if incremental["choose"] else float("inf")
        ),
        "seed_seconds": round(reference["total"], 4),
        "fast_seconds": round(incremental["total"], 4),
        "speedup": (
            round(reference["total"] / incremental["total"], 1) if incremental["total"] else float("inf")
        ),
    }


def bench_parallel_sweep(
    n: int, workers: Optional[int] = None, seed: int = 20090214
) -> Dict[str, object]:
    """Time a multi-config sweep: serial (PR 1 baseline path) vs process pool."""
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    strategies = ["random", "max_degree", "min_degree", "cut"]
    tasks = [
        SweepTask(
            config=ExperimentConfig(
                name="bench-parallel",
                graph=GraphSpec(topology="erdos_renyi", n=n),
                attack=AttackConfig(strategy=strategy, delete_fraction=0.3),
                healers=("forgiving_graph",),
                seed=seed,
                stretch_sources=24,
            ),
            healer="forgiving_graph",
        )
        for strategy in strategies
    ]

    start = time.perf_counter()
    serial_rows = run_sweep(tasks)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_rows = run_sweep(tasks, max_workers=workers)
    parallel_seconds = time.perf_counter() - start

    strip = lambda row: {k: v for k, v in row.items() if k != "seconds"}
    if [strip(r) for r in serial_rows] != [strip(r) for r in parallel_rows]:
        raise AssertionError(f"serial and parallel sweep rows disagree at n={n}")

    return {
        "n": n,
        "configs": len(tasks),
        "workers": workers,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        "speedup": round(serial_seconds / parallel_seconds, 1) if parallel_seconds else float("inf"),
    }


def bench_distributed_repair(
    n: int, deletions: Optional[int] = None, seed: int = 20090214
) -> Dict[str, object]:
    """Time the distributed simulator's per-deletion accounting, seed vs fast.

    Both sides play the identical max-degree attack (same victims — the
    incremental adversary reads the same journal through both subclasses),
    so the per-deletion message/bit/round reports must agree exactly; only
    the accounting around the repairs differs.
    """
    if deletions is None:
        deletions = n // 2
    graph = make_graph("power_law", n, seed=seed)

    def attack(cls):
        healer = cls.from_graph(graph)
        strategy = MaxDegreeDeletion()
        start = time.perf_counter()
        for _ in range(deletions):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)
        return time.perf_counter() - start, healer

    seed_seconds, seed_healer = attack(SeedAccountingDistributedGraph)
    fast_seconds, fast_healer = attack(DistributedForgivingGraph)

    fast_healer.verify_consistency()
    if [_cost_report_key(r) for r in fast_healer.cost_reports] != [
        _cost_report_key(r) for r in seed_healer.cost_reports
    ]:
        raise AssertionError(f"seed and fast distributed accounting disagree at n={n}")

    repairs = max(len(fast_healer.cost_reports), 1)
    return {
        "n": n,
        "deletions": len(fast_healer.cost_reports),
        "seed_seconds": round(seed_seconds, 4),
        "fast_seconds": round(fast_seconds, 4),
        "seed_ms_per_deletion": round(1000 * seed_seconds / repairs, 3),
        "fast_ms_per_deletion": round(1000 * fast_seconds / repairs, 3),
        "within_lemma4_budgets": all(
            r.within_message_budget and r.within_round_budget
            for r in fast_healer.cost_reports
        ),
        "speedup": round(seed_seconds / fast_seconds, 1) if fast_seconds else float("inf"),
    }


def bench_message_native(
    n: int,
    fault_presets: List[str],
    deletions: Optional[int] = None,
    seed: int = 20090214,
) -> Dict[str, object]:
    """The message-native merge gate: correctness without the oracle.

    Runs a max-degree deletion attack with the engine's merge outcome
    *quarantined* (any read raises), so passing proves the healed structure
    was computed from message payloads alone; then checks the Lemma 4
    budgets, exact lossless equivalence with the oracle, and — per requested
    fault preset — that seeded drop/delay/reorder schedules reconverge to
    the oracle after every repair.
    """
    if deletions is None:
        deletions = n // 2
    graph = make_graph("power_law", n, seed=seed)

    def attack(healer) -> None:
        strategy = MaxDegreeDeletion()
        for _ in range(deletions):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)

    lossless = DistributedForgivingGraph.from_graph(graph, quarantine_oracle=True)
    attack(lossless)
    lossless.verify_consistency()  # message-built state == oracle, exactly
    within_budgets = all(
        r.within_message_budget and r.within_round_budget for r in lossless.cost_reports
    )

    fault_rows: List[Dict[str, object]] = []
    for preset in fault_presets:
        faulty = DistributedForgivingGraph.from_graph(
            graph,
            fault_schedule=fault_schedule(preset, seed=seed),
            quarantine_oracle=True,
        )
        attack(faulty)
        consistent = True
        try:
            faulty.verify_consistency()
        except Exception:
            consistent = False
        fault_rows.append(
            {
                "preset": preset,
                "repairs": len(faulty.cost_reports),
                "dropped": sum(r.dropped_messages for r in faulty.cost_reports),
                "retransmissions": sum(r.retransmissions for r in faulty.cost_reports),
                "reconvergence_rounds": sum(
                    r.reconvergence_rounds for r in faulty.cost_reports
                ),
                "all_converged": all(r.converged for r in faulty.cost_reports),
                "consistent_with_oracle": consistent,
            }
        )

    return {
        "n": n,
        "deletions": len(lossless.cost_reports),
        "messages": sum(r.messages for r in lossless.cost_reports),
        "oracle_free": True,  # the quarantine would have raised otherwise
        "within_lemma4_budgets": within_budgets,
        "lossless_matches_oracle": True,  # verify_consistency would have raised
        "fault_schedules": fault_rows,
        "ok": within_budgets
        and all(
            row["all_converged"] and row["consistent_with_oracle"] for row in fault_rows
        ),
    }


#: The full recovery-gate matrix: the acceptance bar is "digest recovery
#: reaches the fixed point under lossless *and* all delivery faults", so the
#: list is derived from the delivery registry itself (a preset added to
#: ``DELIVERY_PRESETS`` joins the gate automatically).  The byzantine
#: presets stay out: this gate scores against the oracle, and quarantining
#: a liar leaves a deliberate, permanent divergence — the dedicated
#: ``byzantine_containment`` gate covers them.  Local full runs and the
#: dedicated CI leg replay all of it; the other CI smoke legs pass
#: ``--recovery-schedule`` to run a cheap subset instead of repeating the
#: whole matrix per job.
RECOVERY_GATE_PRESETS = list(DELIVERY_PRESETS)


def bench_message_native_recovery(
    n: int,
    presets: Optional[List[str]] = None,
    deletions: Optional[int] = None,
    seed: int = 20090214,
) -> Dict[str, object]:
    """The message-native recovery gate: reconvergence without global knowledge.

    Runs a deletion attack per fault preset with *both* quarantines armed —
    the engine's merge outcome and the repair plan's global knowledge
    (context map + all-pieces union) are poison, so every repair and every
    recovery provably runs on messages alone.  The lossless run drives
    ``reconverge()`` by hand after each deletion, isolating the pure
    detection cost (one silent sweep, zero retransmissions).  Per preset the
    gate checks: every recovery converged, the retained plan-based audit
    would indeed raise, the recovered state equals the oracle, and the
    digest traffic stayed within its Lemma-4-style per-sweep budgets.
    """
    if presets is None:
        presets = RECOVERY_GATE_PRESETS
    if deletions is None:
        deletions = n // 2
    graph = make_graph("power_law", n, seed=seed)

    rows: List[Dict[str, object]] = []
    for preset in presets:
        healer = DistributedForgivingGraph.from_graph(
            graph,
            fault_schedule=fault_schedule(preset, seed=seed),
            quarantine_oracle=True,
            quarantine_plan_audit=True,
        )
        strategy = MaxDegreeDeletion()
        for _ in range(deletions):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)
            if healer.fault_schedule is None:
                healer.reconverge()  # lossless: measure pure detection cost
        audit_poisoned = False
        try:
            healer.audit_reference()
        except AssertionError:
            audit_poisoned = True
        consistent = True
        try:
            healer.verify_consistency()
        except Exception:
            consistent = False
        row: Dict[str, object] = {"preset": preset, "repairs": len(healer.cost_reports)}
        row.update(aggregate_recovery(healer.recovery_reports))
        row["plan_audit_poisoned"] = audit_poisoned
        row["consistent_with_oracle"] = consistent
        rows.append(row)

    return {
        "n": n,
        "presets": rows,
        "ok": all(
            row["all_converged"]
            and row["within_digest_budgets"]
            and row["within_round_budgets"]
            and row["plan_audit_poisoned"]
            and row["consistent_with_oracle"]
            and row["recoveries"] > 0
            for row in rows
        ),
    }


#: The byzantine-gate matrix: lies over reliable links and lies combined
#: with the chaos delivery policy (``BYZANTINE_PRESETS`` is the registry).
BYZANTINE_GATE_PRESETS = list(BYZANTINE_PRESETS)


def bench_byzantine_containment(
    n: int,
    presets: Optional[List[str]] = None,
    deletions: Optional[int] = None,
    seed: int = 20090214,
) -> Dict[str, object]:
    """The byzantine containment gate: accountable detection, no collateral.

    Three checks, all message-native (both quarantines armed, so detection
    provably used neither the oracle's merge nor the plan's global
    knowledge):

    1. **Byzantine runs** — per byzantine preset, the accountability
       transcript is scored against the oracle-side injection log: every
       processor whose corrupted payload was actually *delivered* is
       accused (dropped lies never reached a verifier and don't count),
       only genuinely byzantine processors are ever accused, every
       recovery still reaches its silent fixed point around the
       quarantined, and the containment radius is reported.
    2. **Honest controls** — the same attack under every delivery preset
       produces zero accusations: drops, delays and reorders are never
       mistaken for lies.
    3. **Overhead** — on the lossless path, the attack with accountability
       enabled must not lose more than the smoke floor against the same
       attack with the transcript disabled (seals are lazy and descriptor
       checksums hash once per object, so honest traffic is verified
       essentially for free).
    """
    if presets is None:
        presets = BYZANTINE_GATE_PRESETS
    if deletions is None:
        deletions = n // 2
    graph = make_graph("power_law", n, seed=seed)

    def attack(healer) -> None:
        strategy = MaxDegreeDeletion()
        for _ in range(deletions):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)

    rows: List[Dict[str, object]] = []
    for preset in presets:
        schedule = fault_schedule(preset, seed=seed)
        healer = DistributedForgivingGraph.from_graph(
            graph,
            fault_schedule=schedule,
            quarantine_oracle=True,
            quarantine_plan_audit=True,
        )
        attack(healer)
        transcript = healer.network.transcript
        injection = healer.network.injection_log
        accused = set(transcript.accused)
        row: Dict[str, object] = {
            "preset": preset,
            "repairs": len(healer.cost_reports),
            "all_converged": all(r.converged for r in healer.cost_reports),
            "every_delivered_lie_accused": (
                accused == injection.origins_with_delivered_lies
            ),
            "only_byzantine_accused": all(
                schedule.is_byzantine(node) for node in accused
            ),
            "quarantined": len(healer.network.quarantined),
        }
        row.update(
            aggregate_byzantine([r.byzantine for r in healer.cost_reports])
        )
        row["ok"] = bool(
            row["all_converged"]
            and row["every_delivered_lie_accused"]
            and row["only_byzantine_accused"]
            and row["false_accusations"] == 0
            and row["lies_delivered"] > 0  # the run genuinely exercised lies
            and row["accusations"] > 0
            and row["max_containment_radius"] >= 1
        )
        rows.append(row)

    honest_rows: List[Dict[str, object]] = []
    for preset in DELIVERY_PRESETS:
        healer = DistributedForgivingGraph.from_graph(
            graph,
            fault_schedule=fault_schedule(preset, seed=seed),
            quarantine_oracle=True,
        )
        attack(healer)
        transcript = healer.network.transcript
        honest_rows.append(
            {
                "preset": preset,
                "repairs": len(healer.cost_reports),
                "accusations": len(transcript) if transcript is not None else 0,
            }
        )

    def timed_attack(accountable: bool) -> float:
        healer = DistributedForgivingGraph.from_graph(graph)
        if not accountable:
            healer.network.transcript = None  # receive()-time verification off
        start = time.perf_counter()
        attack(healer)
        return time.perf_counter() - start

    timed_attack(True)  # warm-up
    # Best of two fresh runs per side, so one scheduler hiccup cannot
    # decide the comparison (same guard as the delivery flood).
    plain_seconds = min(timed_attack(False) for _ in range(2))
    checked_seconds = min(timed_attack(True) for _ in range(2))
    overhead_speedup = (
        round(plain_seconds / checked_seconds, 2)
        if checked_seconds
        else float("inf")
    )

    return {
        "n": n,
        "presets": rows,
        "honest_controls": honest_rows,
        "plain_seconds": round(plain_seconds, 4),
        "checked_seconds": round(checked_seconds, 4),
        "overhead_speedup": overhead_speedup,
        "ok": all(row["ok"] for row in rows)
        and all(row["accusations"] == 0 for row in honest_rows)
        and overhead_speedup >= TARGET_SMOKE_SPEEDUP,
    }


#: Mixed-traffic rows the ``concurrent_repairs`` gate can add on top of its
#: always-on core checks: the chaos delivery preset and the byzantine lie
#: schedule, each over a concurrent burst ("all" in ``--concurrent-schedule``).
CONCURRENT_GATE_SCHEDULES = ["chaos", "byzantine"]


def bench_concurrent_repairs(
    n: int,
    schedules: Optional[List[str]] = None,
    seed: int = 20090214,
) -> Dict[str, object]:
    """The concurrent-repair gate (PR 8): epoch-tagged bursts in one fabric.

    Three always-on checks:

    1. **Speedup** — a burst of >= 4 deletions with pairwise-disjoint repair
       footprints, healed concurrently in one shared ``deliver_round``
       stream, must finish in under ``TARGET_CONCURRENT_ROUND_RATIO`` of the
       sequential round count (latency trends to the max of the individual
       repair latencies, not their sum).
    2. **Reference twin** — ``delete_batch(concurrency=1)`` must produce
       bit-identical per-deletion cost reports to sequential ``delete``
       calls under *every* delivery preset.
    3. **Silent fixed point** — on the lossless concurrent run, every
       epoch's background anti-entropy must record an *empty* fixed-point
       probe (``fixed_point_messages == 0``): once all ``recovery_satisfied``
       predicates hold, the piggybacked recovery provably goes quiet.

    ``schedules`` adds mixed-traffic rows (the CI ``repair-concurrency``
    leg passes ``--concurrent-schedule all``): the same burst under the
    chaos delivery preset (must converge and match the oracle), and under
    the byzantine lie schedule (accusations scored message-natively — only
    genuine liars accused, zero false accusations; the oracle diverges by
    design once liars are quarantined, so it is not consulted).
    """
    if schedules is None:
        schedules = []
    graph = make_graph("power_law", n, seed=seed)
    from repro.core.ports import NodeKey
    from repro.core.views import g_prime_view_of
    from repro.experiments.sweeps import select_disjoint_victims

    probe = DistributedForgivingGraph.from_graph(graph)
    degree = g_prime_view_of(probe).degree
    candidates = [
        v
        for v in sorted(probe.alive_nodes, key=lambda v: (-degree[v], NodeKey(v)))
        if degree[v] >= 3
    ]
    # The hubs' footprints blanket a power-law graph; skipping the largest
    # few leaves enough mutually disjoint repairs to form a real burst.
    victims = select_disjoint_victims(probe, candidates[5:], limit=8)
    if len(victims) < 4:
        victims = select_disjoint_victims(probe, candidates, limit=8)

    # -- 1. speedup: concurrent rounds vs the sequential reference --------- #
    sequential = DistributedForgivingGraph.from_graph(graph)
    seq_burst = sequential.delete_batch(victims, concurrency=1)
    concurrent = DistributedForgivingGraph.from_graph(graph)
    conc_burst = concurrent.delete_batch(victims, concurrency=None)
    concurrent.verify_consistency()
    round_ratio = conc_burst.rounds / max(seq_burst.rounds, 1)

    # -- 3. silent fixed point on the lossless concurrent run -------------- #
    silent_fixed_point = all(
        r.recovery is not None and r.recovery.fixed_point_messages == 0
        for r in conc_burst.reports
    )

    # -- 2. concurrency=1 bit-identical to sequential deletes, all presets - #
    identity_rows: List[Dict[str, object]] = []
    for preset in DELIVERY_PRESETS:
        batch_healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=seed)
        )
        batch_healer.delete_batch(victims, concurrency=1)
        loop_healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=seed)
        )
        for victim in victims:
            loop_healer.delete(victim)
        identical = [_cost_report_key(r) for r in batch_healer.cost_reports] == [
            _cost_report_key(r) for r in loop_healer.cost_reports
        ]
        identity_rows.append({"preset": preset, "bit_identical": identical})

    # -- optional mixed-traffic rows (the dedicated CI leg) ---------------- #
    mixed_rows: List[Dict[str, object]] = []
    for name in schedules:
        schedule = fault_schedule(name, seed=seed)
        healer = DistributedForgivingGraph.from_graph(graph, fault_schedule=schedule)
        burst = healer.delete_batch(victims, concurrency=None)
        row: Dict[str, object] = {
            "schedule": name,
            "waves": burst.waves,
            "rounds": burst.rounds,
            "converged": all(r.converged for r in burst.reports),
        }
        if schedule.has_byzantine:
            transcript = healer.network.transcript
            accused = set(transcript.accused) if transcript is not None else set()
            row["accused"] = len(accused)
            row["false_accusations"] = sum(
                1 for node in accused if not schedule.is_byzantine(node)
            )
            row["ok"] = bool(row["converged"] and row["false_accusations"] == 0)
        else:
            consistent = True
            try:
                healer.verify_consistency()
            except Exception:
                consistent = False
            row["consistent_with_oracle"] = consistent
            row["ok"] = bool(row["converged"] and consistent)
        mixed_rows.append(row)

    return {
        "n": n,
        "burst_k": len(victims),
        "sequential_rounds": seq_burst.rounds,
        "concurrent_rounds": conc_burst.rounds,
        "concurrent_waves": conc_burst.waves,
        "round_ratio": round(round_ratio, 3),
        "silent_fixed_point": silent_fixed_point,
        "reference_identity": identity_rows,
        "mixed_traffic": mixed_rows,
        "ok": bool(
            len(victims) >= 4
            and conc_burst.waves == 1
            and round_ratio < TARGET_CONCURRENT_ROUND_RATIO
            and silent_fixed_point
            and all(row["bit_identical"] for row in identity_rows)
            and all(row["ok"] for row in mixed_rows)
        ),
    }


def bench_large_n(
    transcript_n: int,
    scale_total: int,
    shards: int,
    shared_total: int,
    seed: int = 20090214,
) -> Dict[str, object]:
    """The large-n section: sharded nodes/sec, transcript bytes, one shared network."""
    # -- transcript: receive-trace retention, default vs trimmed ----------- #
    # Per-processor receive transcripts dominate retained bytes at large n;
    # ``receive_trace_limit`` (PR 8) caps them.  Both depths replay the same
    # attack, so the rows show exactly what trimming the dispute window to
    # the last few messages saves.
    from repro.distributed.processor import Processor

    transcript_graph = make_graph("erdos_renyi", transcript_n, seed=seed)

    def transcript_row(limit: Optional[int]) -> Dict[str, object]:
        healer = DistributedForgivingGraph.from_graph(
            transcript_graph, receive_trace_limit=limit
        )
        # Hub-focused deletions concentrate repair traffic on the same
        # processors, so the deepest transcripts genuinely hit the cap.
        strategy = MaxDegreeDeletion()
        for _ in range(transcript_n // 3):
            victim = strategy.choose_victim(healer)
            if victim is None or healer.num_alive <= 3:
                break
            healer.delete(victim)
        network = healer.network
        retained = sum(len(p.received) for p in network.processors.values())
        words = sum(
            message.payload_words
            for p in network.processors.values()
            for message in p.received
        )
        return {
            "trace_limit": limit if limit is not None else Processor.RECEIVE_TRACE_LIMIT,
            "retained_messages": retained,
            "retained_payload_bytes": words * network._word_bits // 8,
        }

    transcript_default = transcript_row(None)
    transcript_trimmed = transcript_row(16)

    # -- scale: sharded delete-heavy churn, end-to-end nodes/sec ----------- #
    workers = min(shards, os.cpu_count() or 1)
    start = time.perf_counter()
    shard_rows = sweep_large_n(
        "bench-large-n",
        "erdos_renyi",
        scale_total,
        shards,
        attack=AttackConfig(
            strategy="random", delete_fraction=0.01, delete_probability=0.9
        ),
        seed=seed % 1_000,
        stretch_sources=8,
        max_workers=workers if workers > 1 else None,
    )
    scale_seconds = time.perf_counter() - start

    # -- shared scale: one network, delete_batch waves --------------------- #
    (shared_row,) = sweep_large_n(
        "bench-shared-network",
        "erdos_renyi",
        shared_total,
        1,
        attack=AttackConfig(
            strategy="random", delete_fraction=0.005, delete_probability=1.0
        ),
        seed=seed % 1_000,
        shared_network=True,
    )

    return {
        "transcript": {
            "n": transcript_n,
            "default": transcript_default,
            "trimmed": transcript_trimmed,
            "bytes_saved_ratio": round(
                1
                - transcript_trimmed["retained_payload_bytes"]
                / max(transcript_default["retained_payload_bytes"], 1),
                3,
            ),
        },
        "scale": {
            "total_nodes": scale_total,
            "shards": shards,
            "workers": workers,
            "steps": sum(int(r["deletions"]) + int(r["insertions"]) for r in shard_rows),
            "seconds": round(scale_seconds, 3),
            "nodes_per_sec": round(scale_total / scale_seconds, 1) if scale_seconds else float("inf"),
            "all_connected": all(bool(r["connected"]) for r in shard_rows),
        },
        "shared_scale": shared_row,
    }


def bench_service_churn(n: int, ops: int, seed: int = 11) -> Dict[str, object]:
    """The long-lived healer service end to end: churn, crash, certified restore.

    Runs a :class:`~repro.service.HealerDaemon` on a throwaway sqlite store,
    drives a seeded two-client churn workload through the journalled
    submit/pump path, and reads ops/sec and repair-latency percentiles from
    the *live* ``GET /status`` endpoint — the same probe a production
    monitor would hit.  The run is then abandoned with an unpumped journal
    tail (the in-process analogue of ``kill -9`` mid-churn) and
    :meth:`~repro.service.HealerDaemon.restore` must replay the last
    checkpoint plus the journal and certify the recovered fabric:
    reconverged, accountability audit clean, oracle-verified, and — since
    the links are lossless — every fixed-point probe silent.
    """
    import random
    import shutil
    import tempfile
    import urllib.request

    from repro.service import HealerDaemon, ServiceConfig

    tmp = Path(tempfile.mkdtemp(prefix="bench_service_"))
    try:
        config = ServiceConfig(
            graph=GraphSpec("power_law", n),
            seed=seed,
            checkpoint_every=max(ops // 4, 8),
            batch_window=4,
        )
        daemon = HealerDaemon.create(tmp / "run.db", config)
        rng = random.Random(seed)
        clients = [daemon.client("bench-a"), daemon.client("bench-b")]
        next_id = 10_000
        start = time.perf_counter()
        for step in range(ops):
            client = clients[step % len(clients)]
            alive = sorted(daemon._projected_alive, key=repr)
            if rng.random() < 0.3 or len(alive) <= 4:
                client.insert(next_id, rng.sample(alive, min(3, len(alive))))
                next_id += 1
            else:
                client.delete(rng.choice(alive))
            # Pump in batches, but never the last few submissions: the
            # abandoned tail is what makes the restore below a real crash.
            if step % 8 == 7 and step < ops - 4:
                daemon.pump()
        wall_seconds = time.perf_counter() - start
        server = daemon.serve_status(port=0)
        with urllib.request.urlopen(server.url, timeout=10) as response:
            live = json.loads(response.read())
        backlog = int(live["backlog"])
        daemon.close()  # crash: the journal tail is durable but unapplied
        del daemon

        restored, restart = HealerDaemon.restore(tmp / "run.db")
        final = restored.status()
        restored.close()
        silent_fixed_point = final["recovery"]["fixed_point_noisy"] == 0
        certified = bool(restart.converged and restart.audit_clean and restart.verified)
        return {
            "n": n,
            "ops": ops,
            "wall_seconds": round(wall_seconds, 4),
            "ops_per_sec": live["ops_per_sec"],
            "p50_ms": live["latency_ms"]["p50"],
            "p99_ms": live["latency_ms"]["p99"],
            "mean_wave_occupancy": live["waves"]["mean_occupancy"],
            "checkpoints_written": live["checkpoints_written"],
            "store_bytes": live["store_bytes"],
            "crash_backlog_ops": backlog,
            "restore": {
                "checkpoint_seq": restart.checkpoint_seq,
                "prefix_ops": restart.prefix_ops,
                "suffix_ops": restart.suffix_ops,
                "converged": restart.converged,
                "audit_clean": restart.audit_clean,
                "verified": restart.verified,
            },
            "silent_fixed_point": silent_fixed_point,
            "ok": certified and silent_fixed_point and backlog > 0,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #
def build_report(
    quick: bool = False,
    smoke: bool = False,
    fault_presets: Optional[List[str]] = None,
    recovery_presets: Optional[List[str]] = None,
    byzantine_presets: Optional[List[str]] = None,
    concurrent_schedules: Optional[List[str]] = None,
    large_n_nodes: Optional[int] = None,
    large_n_shards: Optional[int] = None,
) -> Dict[str, object]:
    if fault_presets is None:
        fault_presets = ["drop", "reorder"]
    if recovery_presets is None:
        recovery_presets = list(RECOVERY_GATE_PRESETS)
    if byzantine_presets is None:
        byzantine_presets = list(BYZANTINE_GATE_PRESETS)
    if concurrent_schedules is None:
        concurrent_schedules = []
    if smoke:
        sizes = [300]
        sweep_sizes = [120]
        distributed_sizes = [150]
        message_native_sizes = [80]
        recovery_sizes = [80]
        byzantine_sizes = [80]
        concurrent_sizes = [80]
        large_n = {"transcript_n": 150, "scale_total": 600, "shards": 3, "shared_total": 600}
        service = {"n": 40, "ops": 48}
    elif quick:
        sizes = [100, 1000]
        sweep_sizes = [400]
        distributed_sizes = [100, 1000]
        message_native_sizes = [100]
        recovery_sizes = [100]
        byzantine_sizes = [100]
        concurrent_sizes = [120]
        large_n = {
            "transcript_n": 500,
            "scale_total": 20_000,
            "shards": 2,
            "shared_total": 5_000,
        }
        service = {"n": 48, "ops": 96}
    else:
        sizes = [100, 1000, 5000]
        sweep_sizes = [400, 1000]
        distributed_sizes = [100, 1000]
        message_native_sizes = [100, 400]
        recovery_sizes = [100, 400]
        byzantine_sizes = [100, 400]
        concurrent_sizes = [120, 400]
        large_n = {
            "transcript_n": 2000,
            "scale_total": 100_000,
            "shards": 4,
            "shared_total": 100_000,
        }
        service = {"n": 64, "ops": 160}
    if large_n_nodes is not None:
        large_n["scale_total"] = large_n_nodes
    if large_n_shards is not None:
        large_n["shards"] = large_n_shards

    stretch_rows: List[Dict[str, object]] = []
    churn_rows: List[Dict[str, object]] = []
    adversary_rows: List[Dict[str, object]] = []
    parallel_rows: List[Dict[str, object]] = []
    distributed_rows: List[Dict[str, object]] = []
    for n in sizes:
        max_sources = None if n <= 1000 else 128
        print(f"[stretch] n={n} sources={max_sources or 'all'} ...", flush=True)
        row = bench_stretch(n, max_sources)
        print(f"  seed={row['seed_seconds']}s fast={row['fast_seconds']}s -> {row['speedup']}x")
        stretch_rows.append(row)
    for n in sizes:
        print(f"[churn] n={n} ...", flush=True)
        row = bench_churn(n)
        print(f"  seed={row['seed_seconds']}s fast={row['fast_seconds']}s -> {row['speedup']}x")
        churn_rows.append(row)
    for n in sizes:
        print(f"[adversary_step] n={n} ...", flush=True)
        row = bench_adversary_step(n)
        print(
            f"  choose {row['choose_seed_seconds']}s -> {row['choose_fast_seconds']}s "
            f"({row['choose_speedup']}x); end-to-end {row['seed_seconds']}s -> "
            f"{row['fast_seconds']}s ({row['speedup']}x)"
        )
        adversary_rows.append(row)
    for n in sweep_sizes:
        print(f"[parallel_sweep] n={n} ...", flush=True)
        row = bench_parallel_sweep(n)
        print(
            f"  serial={row['serial_seconds']}s parallel={row['parallel_seconds']}s "
            f"(workers={row['workers']}) -> {row['speedup']}x"
        )
        parallel_rows.append(row)
    for n in distributed_sizes:
        print(f"[distributed_repair] n={n} ...", flush=True)
        row = bench_distributed_repair(n)
        print(
            f"  per-deletion {row['seed_ms_per_deletion']}ms -> "
            f"{row['fast_ms_per_deletion']}ms over {row['deletions']} repairs "
            f"-> {row['speedup']}x"
        )
        distributed_rows.append(row)
    message_native_rows: List[Dict[str, object]] = []
    for n in message_native_sizes:
        print(f"[message_native_merge] n={n} faults={','.join(fault_presets)} ...", flush=True)
        row = bench_message_native(n, fault_presets)
        print(
            f"  {row['deletions']} oracle-free repairs, budgets "
            f"{'ok' if row['within_lemma4_budgets'] else 'VIOLATED'}; "
            + "; ".join(
                f"{f['preset']}: {f['retransmissions']} retrans, "
                f"converged={f['all_converged']}"
                for f in row["fault_schedules"]
            )
        )
        message_native_rows.append(row)
    recovery_rows: List[Dict[str, object]] = []
    for n in recovery_sizes:
        print(
            f"[message_native_recovery] n={n} presets={','.join(recovery_presets)} ...",
            flush=True,
        )
        row = bench_message_native_recovery(n, presets=recovery_presets)
        print(
            f"  {'ok' if row['ok'] else 'FAILED'}; "
            + "; ".join(
                f"{p['preset']}: {p['sweeps']} sweeps, {p['digest_messages']} digests, "
                f"{p['retransmissions']} retrans"
                for p in row["presets"]
            )
        )
        recovery_rows.append(row)
    byzantine_rows: List[Dict[str, object]] = []
    for n in byzantine_sizes if byzantine_presets else []:
        print(
            f"[byzantine_containment] n={n} presets={','.join(byzantine_presets)} ...",
            flush=True,
        )
        row = bench_byzantine_containment(n, presets=byzantine_presets)
        print(
            f"  {'ok' if row['ok'] else 'FAILED'}; overhead "
            f"{row['checked_seconds']}s vs {row['plain_seconds']}s "
            f"({row['overhead_speedup']}x); "
            + "; ".join(
                f"{p['preset']}: {p['lies_delivered']} lies delivered, "
                f"{p['accused']} accused, radius {p['max_containment_radius']}"
                for p in row["presets"]
            )
        )
        byzantine_rows.append(row)
    concurrent_rows: List[Dict[str, object]] = []
    for n in concurrent_sizes:
        print(
            f"[concurrent_repairs] n={n} "
            f"schedules={','.join(concurrent_schedules) or 'none'} ...",
            flush=True,
        )
        row = bench_concurrent_repairs(n, schedules=concurrent_schedules)
        print(
            f"  {'ok' if row['ok'] else 'FAILED'}; k={row['burst_k']} burst "
            f"{row['sequential_rounds']} -> {row['concurrent_rounds']} rounds "
            f"(ratio {row['round_ratio']}), fixed point "
            f"{'silent' if row['silent_fixed_point'] else 'NOISY'}"
        )
        concurrent_rows.append(row)
    print(
        f"[large_n] scale={large_n['scale_total']}x{large_n['shards']} shards "
        f"shared={large_n['shared_total']} ...",
        flush=True,
    )
    large_n_row = bench_large_n(**large_n)
    shared = large_n_row["shared_scale"]
    print(
        f"  {large_n_row['scale']['nodes_per_sec']} nodes/sec over "
        f"{large_n_row['scale']['shards']} shards; transcript bytes saved "
        f"{large_n_row['transcript']['bytes_saved_ratio']:.0%} at limit 16; shared "
        f"build {shared['build_seconds']}s, churn {shared['deletions_per_sec']} "
        f"deletions/sec over {shared['deletions']}, verify {shared['verify_seconds']}s "
        f"(connected={shared['connected']})"
    )
    print(f"[service_churn] n={service['n']} ops={service['ops']} ...", flush=True)
    service_row = bench_service_churn(**service)
    print(
        f"  {'ok' if service_row['ok'] else 'FAILED'}; "
        f"{service_row['ops_per_sec']} ops/sec, "
        f"p50={service_row['p50_ms']}ms p99={service_row['p99_ms']}ms; "
        f"crash with {service_row['crash_backlog_ops']} journalled backlog ops -> "
        f"restore converged={service_row['restore']['converged']} "
        f"audit_clean={service_row['restore']['audit_clean']} "
        f"verified={service_row['restore']['verified']}, fixed point "
        f"{'silent' if service_row['silent_fixed_point'] else 'NOISY'}"
    )

    if smoke:
        # CI guard: every fast path at least breaks even on a tiny workload.
        targets_met = {
            "stretch_smoke": all(r["speedup"] >= TARGET_SMOKE_SPEEDUP for r in stretch_rows),
            "churn_smoke": all(r["speedup"] >= TARGET_SMOKE_SPEEDUP for r in churn_rows),
            "adversary_smoke": all(
                r["choose_speedup"] >= TARGET_SMOKE_SPEEDUP for r in adversary_rows
            ),
            "distributed_smoke": all(
                r["speedup"] >= TARGET_SMOKE_SPEEDUP and r["within_lemma4_budgets"]
                for r in distributed_rows
            ),
            "message_native_smoke": all(r["ok"] for r in message_native_rows),
            "message_native_recovery": all(r["ok"] for r in recovery_rows),
            "byzantine_containment": all(r["ok"] for r in byzantine_rows),
            "concurrent_repairs": all(r["ok"] for r in concurrent_rows),
            "large_n_smoke": (
                large_n_row["scale"]["all_connected"]
                and large_n_row["shared_scale"]["connected"]
            ),
            "service_churn": service_row["ok"],
        }
        targets = {"smoke_min_speedup": TARGET_SMOKE_SPEEDUP}
    else:
        stretch_1k = next(r for r in stretch_rows if r["n"] == 1000)
        # The at-scale targets apply where the optimized cost actually
        # dominates (n >= 1000): at n=100 both sides are bound by the shared
        # repair engine, not by measurement (small rows are still reported).
        churn_at_scale = [r for r in churn_rows if r["n"] >= 1000]
        adversary_at_scale = [r for r in adversary_rows if r["n"] >= 1000]
        # Process parallelism cannot show a wall-clock win on a single-core
        # box; the target applies only to rows that actually had >1 worker.
        parallel_multicore = [r for r in parallel_rows if r["workers"] > 1]
        distributed_at_scale = [r for r in distributed_rows if r["n"] >= 1000]
        targets_met = {
            "stretch_n1000": stretch_1k["speedup"] >= TARGET_STRETCH_SPEEDUP_N1000,
            "churn_n_ge_1000": all(r["speedup"] >= TARGET_CHURN_SPEEDUP for r in churn_at_scale),
            "adversary_n_ge_1000": all(
                r["choose_speedup"] >= TARGET_ADVERSARY_SPEEDUP for r in adversary_at_scale
            ),
            "parallel_sweep": all(
                r["speedup"] >= TARGET_PARALLEL_SPEEDUP for r in parallel_multicore
            ),
            "distributed_n_ge_1000": all(
                r["speedup"] >= TARGET_DISTRIBUTED_SPEEDUP_N1000 and r["within_lemma4_budgets"]
                for r in distributed_at_scale
            ),
            "message_native_merge": all(r["ok"] for r in message_native_rows),
            "message_native_recovery": all(r["ok"] for r in recovery_rows),
            "byzantine_containment": all(r["ok"] for r in byzantine_rows),
            "concurrent_repairs": all(r["ok"] for r in concurrent_rows),
            "large_n_connected": large_n_row["scale"]["all_connected"],
            "large_n_shared_scale": bool(
                large_n_row["shared_scale"]["connected"]
                and large_n_row["shared_scale"]["deletions"]
                >= large_n_row["shared_scale"]["deletion_target"]
            ),
            "service_churn": service_row["ok"],
        }
        targets = {
            "stretch_n1000_min_speedup": TARGET_STRETCH_SPEEDUP_N1000,
            "churn_min_speedup": TARGET_CHURN_SPEEDUP,
            "adversary_min_choose_speedup": TARGET_ADVERSARY_SPEEDUP,
            "parallel_min_speedup": TARGET_PARALLEL_SPEEDUP,
            "distributed_n1000_min_speedup": TARGET_DISTRIBUTED_SPEEDUP_N1000,
            # The merge/recovery/byzantine gates are boolean correctness
            # gates (no threshold to record).
            "concurrent_max_round_ratio": TARGET_CONCURRENT_ROUND_RATIO,
        }

    return {
        "schema": "bench_perf/v11",
        "generated_by": "scripts/perf_report.py" + (" --smoke" if smoke else ""),
        "scipy_backend": HAVE_SCIPY,
        "cpus": os.cpu_count(),
        "stretch_report": stretch_rows,
        "churn_sweep": churn_rows,
        "adversary_step": adversary_rows,
        "parallel_sweep": parallel_rows,
        "distributed_repair": distributed_rows,
        "message_native_merge": message_native_rows,
        "message_native_recovery": recovery_rows,
        "byzantine_containment": byzantine_rows,
        "concurrent_repairs": concurrent_rows,
        "large_n": large_n_row,
        "service_churn": service_row,
        "targets": targets,
        "targets_met": targets_met,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="skip the n=5000 workloads")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny n, asserts every fast path keeps speedup >= 1x, "
        "does not overwrite BENCH_perf.json unless --output says so",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_perf.json at repo root; /tmp for --smoke)",
    )
    parser.add_argument(
        "--fault-schedule",
        default="drop,reorder",
        help="comma-separated delivery presets the message_native_merge gate "
        f"replays ('all' = every one; available: {', '.join(sorted(DELIVERY_PRESETS))}); "
        "the CI matrix runs one preset per job",
    )
    parser.add_argument(
        "--recovery-schedule",
        default="all",
        help="comma-separated presets the message_native_recovery gate "
        "replays ('all' = lossless + every delivery preset; the generic CI "
        "smoke legs pass a cheap subset, the dedicated recovery leg runs "
        "the full matrix)",
    )
    parser.add_argument(
        "--byzantine-schedule",
        default="all",
        help="comma-separated presets the byzantine_containment gate "
        f"replays ('all' = {', '.join(BYZANTINE_GATE_PRESETS)}; 'none' "
        "skips the gate — the generic CI smoke legs skip it, the "
        "dedicated byzantine leg runs the full matrix)",
    )
    parser.add_argument(
        "--concurrent-schedule",
        default="none",
        help="comma-separated mixed-traffic rows the concurrent_repairs gate "
        f"adds ('all' = {', '.join(CONCURRENT_GATE_SCHEDULES)}; 'none' runs "
        "only the core speedup/bit-identity/silent-fixed-point checks — the "
        "generic CI smoke legs; the dedicated repair-concurrency leg passes "
        "'all')",
    )
    parser.add_argument(
        "--large-n-nodes",
        type=int,
        default=None,
        help="override the large_n scale row's total node count "
        "(the CI large-n leg raises the smoke default to exercise the "
        "sharded path on a non-trivial workload)",
    )
    parser.add_argument(
        "--large-n-shards",
        type=int,
        default=None,
        help="override the large_n scale row's shard count",
    )
    args = parser.parse_args(argv)

    def parse_presets(
        value: str, flag: str, everything: List[str], registry: Dict[str, object]
    ) -> List[str]:
        """Split a comma list of preset names, validating against a registry.

        Delegates to :meth:`FaultSpec.parse_list` — the one grammar shared
        by these flags, ``AttackConfig.fault_preset`` and ``ServiceConfig``
        — and turns its ``ValueError`` into an argparse error.
        """
        try:
            return FaultSpec.parse_list(
                value, flag=flag, registry=registry, everything=everything
            )
        except ValueError as exc:
            parser.error(str(exc))

    # The merge and recovery gates score against the oracle, so they accept
    # delivery presets only (quarantining a liar leaves a deliberate,
    # permanent divergence — the byzantine gate owns those presets).  The
    # merge gate always runs lossless unconditionally, so its 'all' is the
    # faulty presets only; the recovery gate's 'all' includes lossless (its
    # lossless row isolates the pure detection cost).
    fault_presets = parse_presets(
        args.fault_schedule,
        "--fault-schedule",
        [p for p in DELIVERY_PRESETS if p != "lossless"],
        DELIVERY_PRESETS,
    )
    recovery_presets = parse_presets(
        args.recovery_schedule,
        "--recovery-schedule",
        RECOVERY_GATE_PRESETS,
        DELIVERY_PRESETS,
    )
    byzantine_presets = parse_presets(
        args.byzantine_schedule,
        "--byzantine-schedule",
        BYZANTINE_GATE_PRESETS,
        BYZANTINE_PRESETS,
    )
    concurrent_schedules = parse_presets(
        args.concurrent_schedule,
        "--concurrent-schedule",
        CONCURRENT_GATE_SCHEDULES,
        {name: name for name in CONCURRENT_GATE_SCHEDULES},
    )

    output = args.output
    if output is None:
        output = (
            Path("/tmp/bench_smoke.json") if args.smoke else REPO_ROOT / "BENCH_perf.json"
        )

    report = build_report(
        quick=args.quick,
        smoke=args.smoke,
        fault_presets=fault_presets,
        recovery_presets=recovery_presets,
        byzantine_presets=byzantine_presets,
        concurrent_schedules=concurrent_schedules,
        large_n_nodes=args.large_n_nodes,
        large_n_shards=args.large_n_shards,
    )
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    if not all(report["targets_met"].values()):
        print("WARNING: speedup targets not met:", report["targets_met"])
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
