#!/usr/bin/env python
"""heap_report — the heap a finished max-degree attack retains, per module.

Runs 120 max-degree deletions on ``power_law`` n=2000 (seed 0) through the
distributed healer under ``tracemalloc``, keeping the healer and the attack
session, and reports what is still allocated once the attack is over.  The
generated input graph ``G_0`` is dropped once the healer is built from it,
so the report counts the healer, not its input; the benchmark's
``heap_kb_per_node`` (``perfbench/harness.py``) still counts ``G_0``, which
its pass keeps alive, about 0.66 KiB/node of its reading.  Each allocation
is charged to the module that made it (the caller,
for code generated at run time such as a dataclass ``__init__``): one line
per ``repro`` subpackage, one for networkx and one for everything else,
then the total, all in KiB per node ever seen::

    python scripts/heap_report.py
    python scripts/heap_report.py --max-kib 4.23  # exit 1 above 4.23 KiB/node

Three lines after it are about the garbage collector.  Two say what a
full collection costs while all of that is alive: the number of objects
the collector tracks (a full collection walks every one) and the wall time
of one full collection, taken after ``tracemalloc`` stops.  The third says
how many young (generation-0), middle (generation-1) and full
(generation-2) collections the attack itself triggered, and the full ones'
summed pause, taken by a ``gc.callbacks`` hook installed around the attack
only (so under ``tracemalloc``).  No threshold applies to them: the times
depend on the host, and the counts on the interpreter.  The last line is a
census of the network, taken after everything else: the Table 1 records
its processors hold built against their ``G'`` edge ends (the rest are
still the records ``Init`` made, held as ``None``), and the links whose
only source is their real edge against all links.

Figures depend on the Python version (object layouts differ), so compare
runs on one interpreter.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro import AttackSession  # noqa: E402
from repro.adversary import AttackSchedule, MaxDegreeDeletion  # noqa: E402
from repro.distributed import DistributedForgivingGraph  # noqa: E402
from repro.distributed.merge import real_source_key  # noqa: E402
from repro.generators import make_graph  # noqa: E402

N, MOVES, SEED = 2000, 120, 0
PACKAGE = SRC / "repro"


def owner(traceback: tracemalloc.Traceback) -> str:
    """The group an allocation is charged to: that of the most recent frame
    with a source file (generated code reports a ``<...>`` name)."""
    files = [frame.filename for frame in traceback if not frame.filename.startswith("<")]
    path = Path(files[-1] if files else "<unknown>")
    if path.is_relative_to(PACKAGE):
        return "repro." + path.relative_to(PACKAGE).parts[0].removesuffix(".py")
    if "networkx" in path.parts:
        return "networkx"
    return "other"


class Collections:
    """A ``gc.callbacks`` hook: the collections it saw per generation, and
    the full (generation-2) ones' summed pause."""

    def __init__(self) -> None:
        self.counts = [0, 0, 0]
        self.full_pause_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        generation = info["generation"]
        if phase == "start":
            self._started = time.perf_counter()
            return
        self.counts[generation] += 1
        if generation == 2:
            self.full_pause_s += time.perf_counter() - self._started


def attack():
    """The attack, run to its end; returns what it keeps alive: the healer
    and the session, not the input graph."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", N, seed=SEED))
    schedule = AttackSchedule(
        steps=MOVES, deletion_strategy=MaxDegreeDeletion(), delete_probability=1.0, seed=SEED
    )
    session = AttackSession(healer, schedule, measure_every=0, measure_final=False)
    for _event in session.stream():
        pass
    healer.compact_journals()
    return healer, session


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--max-kib", type=float, default=None, help="exit 1 when the total exceeds this"
    )
    args = parser.parse_args(argv)

    tracemalloc.start(2)
    collections = Collections()
    gc.callbacks.append(collections)
    try:
        kept = attack()
    finally:
        gc.callbacks.remove(collections)
    gc.collect()
    snapshot = tracemalloc.take_snapshot()
    tracemalloc.stop()
    healer = kept[0]
    nodes = healer.nodes_ever

    retained = Counter()
    for stat in snapshot.statistics("traceback"):
        retained[owner(stat.traceback)] += stat.size
    total_kib = sum(retained.values()) / 1024 / nodes
    del snapshot  # its traces are tuples the collector would walk too
    start = time.perf_counter()
    gc.collect()
    pause_ms = (time.perf_counter() - start) * 1000
    tracked = len(gc.get_objects())
    print(f"# power_law n={N}, {MOVES} max-degree deletions, seed {SEED}; Python {sys.version.split()[0]}")
    groups = sorted(name for name in retained if name.startswith("repro."))
    for name in groups + ["networkx", "other"]:
        print(f"{name} = {retained[name] / 1024 / nodes:.2f} KiB/node")
    print(f"total = {total_kib:.2f} KiB/node")
    print(f"gc_tracked = {tracked} objects")
    print(f"gc_full_collection = {pause_ms:.1f} ms")
    young, middle, full = collections.counts
    print(
        f"gc_attack_collections = {young} young, {middle} middle, {full} full "
        f"({collections.full_pause_s * 1000:.1f} ms in full)"
    )
    network = healer.network
    ends = held = 0
    for processor in network.processors.values():
        ends += len(processor.edges)
        held += sum(record is not None for record in processor.edges.values())
    real_only = sum(
        keys == {real_source_key(*link)} for link, keys in network.export_link_sources().items()
    )
    print(
        f"census = {held} of {ends} Table 1 records held (one per G' edge end), "
        f"{real_only} of {network.num_links()} links sourced by their real edge alone"
    )
    if args.max_kib is not None and total_kib > args.max_kib:
        print(f"# over the ceiling of {args.max_kib} KiB/node", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
