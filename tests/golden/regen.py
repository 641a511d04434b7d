"""Golden digests of the distributed healer's observable behaviour.

Each scenario drives the message-passing healer through a fixed, seeded
workload and reduces everything the Lemma 4 ledgers and the healed structure
expose to one sha256 digest over canonical JSON:

* ``dataclasses.asdict`` of every ``DeletionCostReport`` (recovery and
  byzantine ledgers included) and ``BurstCostReport.as_row()`` of every burst,
* the network's run-wide message, bit, round and drop totals,
* ``Network.export_link_sources()`` (the healed graph as sourced links),
* every processor's Table 1 records, field by field,
* every accusation as ``(accused, reporter, reason, round, evidence)``, each
  evidence message reduced to ``(kind, sender, receiver, seal)``.

Message ids and anything timed are left out: ids are an allocation detail no
ledger reads, and wall-clock numbers differ run to run.

``tests/test_golden_digests.py`` recomputes the digests and compares them to
``digests.json``.  A mismatch means the observable behaviour changed; find
the difference rather than regenerating.  To rewrite the fixture after an
intended behaviour change, run::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List

from repro.core.ports import Port, sorted_nodes
from repro.distributed.faults import DELIVERY_PRESETS, fault_schedule
from repro.distributed.processor import EdgeRecord
from repro.distributed.simulator import DistributedForgivingGraph
from repro.experiments.sweeps import select_disjoint_victims
from repro.generators.graphs import GraphSpec, make_graph
from repro.service import HealerDaemon, ServiceConfig

FIXTURE = Path(__file__).resolve().parent / "digests.json"

#: Graph size and seed shared by the attack and burst scenarios.
N = 60
SEED = 12


# --------------------------------------------------------------------------- #
# canonical JSON
# --------------------------------------------------------------------------- #
def canonical(value: object) -> object:
    """A JSON-ready form of ``value`` with a deterministic layout.

    Sets are sorted by their members' JSON text, dicts become sorted
    ``[key, value]`` pairs (node ids are not all strings), and ports are
    tagged so they cannot collide with plain pairs.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Port):
        return ["Port", canonical(value.processor), canonical(value.neighbor)]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=_text)
    if isinstance(value, dict):
        pairs = [[canonical(k), canonical(v)] for k, v in value.items()]
        return sorted(pairs, key=_text)
    if dataclasses.is_dataclass(value):
        return canonical(
            {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        )
    raise TypeError(f"no canonical form for {type(value).__name__}: {value!r}")


def _text(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------- #
# the digested state
# --------------------------------------------------------------------------- #
def _records(healer: DistributedForgivingGraph) -> List[object]:
    names = [f.name for f in dataclasses.fields(EdgeRecord)]
    return [
        [node, [[getattr(record, name) for name in names] for _, record in processor.edges.items()]]
        for node, processor in healer.network.processors.items()
    ]


def _accusations(healer: DistributedForgivingGraph) -> List[object]:
    return [
        (
            a.accused,
            a.reporter,
            a.reason,
            a.round,
            [(m.kind, m.sender, m.receiver, m.seal) for m in a.evidence],
        )
        for a in healer.network.transcript.accusations
    ]


def state_parts(healer: DistributedForgivingGraph) -> Dict[str, object]:
    """Everything one healer contributes to a digest."""
    metrics = healer.network.metrics
    return {
        "cost_reports": [dataclasses.asdict(report) for report in healer.cost_reports],
        "bursts": [burst.as_row() for burst in healer.burst_reports],
        "totals": [
            metrics.total_messages,
            metrics.total_bits,
            metrics.total_rounds,
            metrics.total_dropped,
            metrics.max_message_bits,
        ],
        "link_sources": healer.network.export_link_sources(),
        "records": _records(healer),
        "accusations": _accusations(healer),
    }


def digest(parts: Dict[str, object]) -> str:
    text = json.dumps(canonical(parts), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# scenarios
# --------------------------------------------------------------------------- #
def _healer(preset: str) -> DistributedForgivingGraph:
    graph = make_graph("power_law", N, seed=SEED)
    return DistributedForgivingGraph.from_graph(graph, fault_schedule=fault_schedule(preset, seed=SEED))


def attack(preset: str) -> Dict[str, object]:
    """20 max-degree deletions with a degree-3 insertion after every 4th."""
    healer = _healer(preset)
    rng = random.Random(SEED)
    next_id = 1000
    for step in range(25):
        alive = sorted_nodes(healer.alive_nodes)
        if step % 5 == 4:
            healer.insert(next_id, attach_to=rng.sample(alive, 3))
            next_id += 1
        else:
            healer.delete(max(alive, key=healer.actual_degree))
    return state_parts(healer)


def bursts(preset: str) -> Dict[str, object]:
    """Three ``delete_batch`` bursts of 4 disjoint-footprint victims each.

    Under ``byzantine`` this pins the wave path's ``ByzantineReport``.
    """
    healer = _healer(preset)
    for _ in range(3):
        # Newest nodes first: in a power-law graph they sit away from the
        # hubs, so their repair footprints rarely overlap.
        candidates = sorted_nodes(healer.alive_nodes)[::-1]
        victims = select_disjoint_victims(healer, candidates, limit=4)
        assert len(victims) == 4, victims
        healer.delete_batch(victims)
    return state_parts(healer)


def daemon() -> Dict[str, object]:
    """Daemon churn, a close with an unpumped tail, then a certified restore."""
    config = ServiceConfig(
        graph=GraphSpec("power_law", 40), seed=SEED, checkpoint_every=8, batch_window=3
    )
    rng = random.Random(SEED)
    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "golden.db"
        service = HealerDaemon.create(db, config)
        clients = [service.client("alice"), service.client("bob")]
        next_id = 10_000
        for step in range(24):
            alive = sorted_nodes(service._projected_alive)
            if step % 4 == 3:
                clients[step % 2].insert(next_id, rng.sample(alive, 3))
                next_id += 1
            else:
                clients[step % 2].delete(rng.choice(alive))
            if step % 5 == 4:
                service.pump()
        service.pump()
        for _ in range(3):
            clients[0].delete(rng.choice(sorted_nodes(service._projected_alive)))
        crashed = service.healer
        service.close()
        restored, restart = HealerDaemon.restore(db)
        try:
            parts = {
                "crashed": state_parts(crashed),
                "restored": state_parts(restored.healer),
                "restart": dataclasses.asdict(restart),
            }
        finally:
            restored.close()
    return parts


def scenarios() -> Dict[str, Callable[[], Dict[str, object]]]:
    """Every golden scenario by name."""
    table: Dict[str, Callable[[], Dict[str, object]]] = {}
    for preset in [*DELIVERY_PRESETS, "byzantine", "byzantine-chaos"]:
        table[f"attack/{preset}"] = lambda preset=preset: attack(preset)
    for preset in ("lossless", "chaos", "byzantine"):
        table[f"bursts/{preset}"] = lambda preset=preset: bursts(preset)
    table["daemon/restore"] = daemon
    return table


def compute() -> Dict[str, str]:
    return {name: digest(build()) for name, build in scenarios().items()}


def main() -> int:
    digests = compute()
    FIXTURE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    for name, value in sorted(digests.items()):
        print(f"{name:24s} {value}")
    print(f"wrote {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
