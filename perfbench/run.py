#!/usr/bin/env python3
"""The healer benchmark: one workload, one seed, every metric with its unit.

Run from the repository root::

    python3 perfbench/run.py --workload maxdeg-lossless --seed 0 --seconds 10 --trace 0

A run plays several *instances* of the workload, each with its own seed
derived from ``--seed``, in turn until ``--seconds`` have gone by.
``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs each instance untraced and then traced and reports the per-layer
metrics plus the tracing overhead.  Every line but the last names one
metric; the last line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is 0 only when every correctness
check passed.  Workloads are defined in ``perfbench/workloads.json``; see
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOG = HERE / "workloads.json"
WORKDIR = HERE / ".work"
SPANS_DIR = HERE / "out"

#: Untraced/traced pass pairs a traced run makes at least.
MIN_TRACE_PAIRS = 2

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = {
    "setup_s": "s",
    "delete_ms_p50": "ms",
    "deletions_per_s": "1/s",
    "ops_per_s": "1/s",
    "msgs_per_delete": "count",
    "bits_per_delete": "bits",
    "rounds_per_delete": "count",
    "heap_kb_per_node": "KiB",
    "peak_stretch": "ratio",
    "peak_degree_factor": "ratio",
}


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile, interpolating between the closest ranks."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def supported(samples: int, q: int) -> bool:
    """A percentile is reported only when at least 10 samples lie beyond it."""
    return samples * (100.0 - q) / 100.0 >= 10


def instance_seed(seed: int, instance: int) -> int:
    """The seed of one of a run's instances; distinct run seeds never share one."""
    return seed * 1000 + instance


def repeat_problems(passes) -> List[str]:
    """Every pass of one instance must reproduce that instance's counts exactly."""
    first: Dict[int, tuple] = {}
    problems = []
    for instance, result in passes:
        expected = first.setdefault(instance, result.fingerprint())
        if result.fingerprint() != expected:
            problems.append(f"instance {instance} counts {result.fingerprint()} differ from {expected}")
    return problems


def cycle(harness, workload, seed: int, seconds: float, tracer=None) -> List[tuple]:
    """Passes over the run's instances in turn until ``seconds`` have gone by.

    Untraced, the run makes at least the workload's ``repeats`` whole rounds
    over its instances.  With a tracer, each instance runs untraced and then traced,
    back to back, at least ``MIN_TRACE_PAIRS`` times.  Returns
    ``(instance, result, wall seconds, traced)`` per pass; the wall time
    leaves out the pass's speed-gauge loops.
    """
    import layers

    instances = workload["instances"]
    minimum = instances * workload["repeats"] if tracer is None else MIN_TRACE_PAIRS
    rows = []
    started = perf_counter()
    turn = 0
    # Untraced runs end on a whole round, so every instance repeats equally often.
    whole = instances if tracer is None else 1
    while turn < minimum or turn % whole or perf_counter() - started < seconds:
        instance = turn % instances
        for traced in (False, True) if tracer is not None else (False,):
            gc.collect()
            if traced:
                layers.install(tracer)
            try:
                began = perf_counter()
                result = harness.run_pass(workload, instance_seed(seed, instance), WORKDIR)
                wall = perf_counter() - began - sum(result.gauge.samples)
                rows.append((instance, result, wall, traced))
            finally:
                if traced:
                    tracer.restore()
        turn += 1
    return rows


def typical(runs: List[List[float]]) -> List[float]:
    """Each slot's median time over repetitions of exactly the same work."""
    return [statistics.median(slot) for slot in zip(*runs)]


def end_to_end(passes, heap) -> Tuple[Dict[str, float], Dict[str, Tuple[float, str]]]:
    """The JSON metrics, and the workload-specific ones printed beside them.

    Every time is already scaled to the reference host's speed (see
    ``harness.SpeedGauge``).  Every instance is played several times with
    exactly the same moves, so each move's time is its median repetition;
    percentiles are taken over the moves of all instances, and churn time
    sums the median repetition of each timed piece.  Set-up time is the
    median over every pass.  Counts and peaks come from one pass per
    instance: traffic is summed over the instances, and each peak is the
    mean of the instances' own peaks.
    """
    from harness import GAUGE_REFERENCE_S

    by_instance: Dict[int, list] = {}
    for instance, result in passes:
        by_instance.setdefault(instance, []).append(result)
    once = [repeats[0] for repeats in by_instance.values()]
    deletes: List[float] = []
    inserts: List[float] = []
    waits: List[float] = []
    for repeats in by_instance.values():
        deletes += typical([result.delete_ms for result in repeats])
        inserts += typical([result.insert_ms for result in repeats])
        waits += typical([result.queue_wait_ms for result in repeats])
    churn_s = sum(sum(typical([result.churn for result in repeats])) for repeats in by_instance.values())
    deleted = sum(result.counts["deleted"] for result in once)
    results = [result for _, result in passes]
    metrics = {
        "setup_s": statistics.median(result.setup_s for result in results),
        "delete_ms_p50": percentile(deletes, 50),
        "deletions_per_s": sum(result.deletions for result in once) / churn_s,
        "ops_per_s": sum(result.deletions + result.insertions for result in once) / churn_s,
        "msgs_per_delete": sum(result.counts["messages"] for result in once) / deleted,
        "bits_per_delete": sum(result.counts["bits"] for result in once) / deleted,
        "rounds_per_delete": sum(result.counts["rounds"] for result in once) / deleted,
        "heap_kb_per_node": heap.heap_bytes / 1024.0 / heap.nodes_ever,
        "peak_stretch": statistics.fmean(result.peak_stretch for result in once),
        "peak_degree_factor": statistics.fmean(result.peak_degree_factor for result in once),
    }
    extras: Dict[str, Tuple[float, str]] = {}
    for q in (90, 99):
        if supported(len(deletes), q):
            extras[f"delete_ms_p{q}"] = (percentile(deletes, q), "ms")
    if inserts:
        extras["insert_ms_p50"] = (percentile(inserts, 50), "ms")
    if heap.restore_s is not None:
        extras["restore_s"] = (statistics.median(result.restore_s for result in results), "s")
        extras["queue_wait_ms_p50"] = (percentile(waits, 50), "ms")
    extras["max_peak_stretch"] = (max(result.peak_stretch for result in once), "ratio")
    extras["max_peak_degree_factor"] = (max(result.peak_degree_factor for result in once), "ratio")
    attempted = sum(result.attempted for result in results)
    extras["failed_op_ratio"] = (sum(result.failed for result in results) / max(attempted, 1), "ratio")
    extras["delete_samples"] = (len(deletes), "count")
    gauged = [seconds for result in results for seconds in result.gauge.samples]
    extras["host_slowdown_p50"] = (statistics.median(gauged) / GAUGE_REFERENCE_S, "ratio")
    return metrics, extras


def per_layer(tracer, rows) -> Dict[str, float]:
    """Per-layer metrics from the traced passes, each per traced pass."""
    import layers
    from spans import self_times

    traced = [row for row in rows if row[3]]
    count = len(traced)
    wall = sum(row[2] for row in traced)
    totals = self_times(tracer.spans)
    metrics: Dict[str, float] = {}
    for layer in layers.LAYERS:
        calls, self_s = totals.get(layer.name, (0, 0.0))
        metrics[f"{layer.name}.calls"] = calls / count
        if layer.universal:
            metrics[f"{layer.name}.self_s"] = self_s / count
        metrics[f"{layer.name}.share"] = 100.0 * self_s / wall
    for name in layers.COUNTERS + layers.BYTE_COUNTERS:
        metrics[name] = tracer.counters.get(name, 0) / count
    waves = tracer.counters.get("simulator.delete_batch.waves", 0)
    victims = tracer.counters.get("simulator.delete_batch.victims", 0)
    metrics["simulator.delete_batch.victims_per_wave"] = victims / waves if waves else 0.0
    for prefix in ("recovery.reconverge", "recovery.BackgroundRecovery"):
        digests = tracer.counters.get(f"{prefix}.digest_messages", 0)
        resent = tracer.counters.get(f"{prefix}.retransmissions", 0)
        metrics[f"{prefix}.retransmit_ratio"] = resent / (digests + resent) if digests + resent else 0.0
    plain = [row[1] for row in rows if not row[3]]
    waits = sum(ms for result in plain for ms in result.queue_wait_ms)
    latencies = sum(ms for result in plain for ms in result.delete_ms + result.insert_ms)
    metrics["daemon.pump.queue_wait_pct"] = 100.0 * waits / latencies if waits else 0.0
    # Each traced pass directly follows an untraced pass of the same instance;
    # each wall time is set against its pass's typical host speed.
    def speed(row) -> float:
        return statistics.median(row[1].gauge.samples)

    ratios = [
        (after[2] / speed(after)) / (before[2] / speed(before))
        for before, after in zip(rows[::2], rows[1::2])
    ]
    metrics["run.trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    metrics["run.span_coverage_pct"] = 100.0 * sum(s for _, s in totals.values()) / wall
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import layers
    from spans import Tracer

    catalog = harness.load_catalog(CATALOG)
    if args.workload not in catalog:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(catalog)}")
    workload = catalog[args.workload]

    try:
        if args.trace:
            tracer = Tracer()
            rows = cycle(harness, workload, args.seed, args.seconds, tracer)
            spans_out = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_out)
            print(f"# spans written to {spans_out}")
            metrics, units = per_layer(tracer, rows), layers.metric_units()
            extras = {"traced_passes": (sum(row[3] for row in rows), "count")}
        else:
            rows = cycle(harness, workload, args.seed, args.seconds)
            heap = harness.run_pass(workload, instance_seed(args.seed, 0), WORKDIR, heap=True)
            metrics, extras = end_to_end([row[:2] for row in rows], heap)
            units = END_TO_END
            rows.append((0, heap, 0.0, False))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    passes = [row[:2] for row in rows]
    problems = [text for _, result in passes for text in result.problems]
    problems += repeat_problems(passes)
    attempted = sum(result.attempted for _, result in passes)
    failed = sum(result.failed for _, result in passes)
    correct = not problems and failed == 0

    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes")
    for text in dict.fromkeys(problems):
        print(f"# CHECK FAILED: {text}")
    for name, (value, unit) in extras.items():
        print(f"{name} = {value!r} {unit}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
