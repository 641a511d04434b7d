#!/usr/bin/env python
"""healerd — run the Forgiving Graph healer as a long-lived service.

The process entry point for :mod:`repro.service`: starts (or resumes) a
:class:`~repro.service.HealerDaemon` on a sqlite checkpoint store, serves
the live JSON status endpoint, and drives a seeded two-client churn
workload until ``--ops`` operations have been applied.  Every operation is
journalled durably before it is applied, so the process is safe to
``kill -9`` at any moment::

    PYTHONPATH=src python scripts/healerd.py --db run.db --topology power_law \\
        --n 64 --seed 7 --ops 200 --checkpoint-every 16 --status-port 0 \\
        --port-file run.port
    # ... SIGKILL it mid-churn, then pick up where the checkpoint left off:
    PYTHONPATH=src python scripts/healerd.py --db run.db --resume --ops 200

``--resume`` restores from the store (the service config is persisted in
it, so topology/seed flags are not repeated), certifies the recovered
state, and reports the :class:`~repro.service.RestartReport`.  ``--ops``
counts *total applied operations in the store*, so a resumed run finishes
the remaining budget.  ``--status-json PATH`` dumps a final status
snapshot for artifact upload; ``--rejoin-stale`` runs one
stale-checkpoint rejoin at the end (the digest-divergence healing demo).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.distributed.faults import DELIVERY_PRESETS  # noqa: E402
from repro.generators.graphs import GraphSpec, available_topologies  # noqa: E402
from repro.service import HealerDaemon, ServiceConfig  # noqa: E402


def drive_churn(daemon: HealerDaemon, ops_target: int, pump_every: int = 8) -> None:
    """Seeded two-client churn until the store holds ``ops_target`` ops.

    Deterministic given the config seed and the current journal length, so
    a resumed run continues the same workload shape the crashed one ran.
    """
    rng = random.Random(daemon.config.seed * 7919 + daemon.store.journal_len())
    clients = [daemon.client("churn-a"), daemon.client("churn-b")]
    next_id = 10_000 + daemon.store.journal_len()
    submitted = 0
    while daemon.store.journal_len() < ops_target:
        client = clients[submitted % len(clients)]
        alive = sorted(daemon._projected_alive, key=repr)
        if rng.random() < 0.3 or len(alive) <= 4:
            attach = rng.sample(alive, min(3, len(alive)))
            client.insert(next_id, attach)
            next_id += 1
        else:
            client.delete(rng.choice(alive))
        submitted += 1
        if submitted % pump_every == 0:
            daemon.pump()
    daemon.pump()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--db", required=True, help="checkpoint store path (one per run)")
    parser.add_argument("--resume", action="store_true", help="restore from the store")
    parser.add_argument(
        "--topology", default="power_law", choices=sorted(available_topologies())
    )
    parser.add_argument("--n", type=int, default=64, help="genesis node count")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--fault",
        default="lossless",
        choices=sorted(DELIVERY_PRESETS),
        help="delivery-fault preset",
    )
    parser.add_argument("--ops", type=int, default=200, help="total ops budget (journalled)")
    parser.add_argument("--checkpoint-every", type=int, default=16)
    parser.add_argument("--batch-window", type=int, default=4)
    parser.add_argument(
        "--status-port", type=int, default=None, help="serve GET /status (0 = ephemeral)"
    )
    parser.add_argument(
        "--port-file", default=None, help="write the bound status port to this file"
    )
    parser.add_argument(
        "--status-json", default=None, help="dump a final status snapshot to this file"
    )
    parser.add_argument(
        "--rejoin-stale",
        action="store_true",
        help="finish with one stale-checkpoint rejoin (digest-divergence healing)",
    )
    args = parser.parse_args()

    if args.resume:
        daemon, report = HealerDaemon.restore(args.db)
        print(
            f"restored from checkpoint seq={report.checkpoint_seq}: "
            f"{report.prefix_ops} prefix ops (oracle replay), "
            f"{report.suffix_ops} suffix ops (full path), "
            f"converged={report.converged} audit_clean={report.audit_clean} "
            f"verified={report.verified}"
        )
        if not (report.converged and report.audit_clean and report.verified):
            print("restore certification FAILED", file=sys.stderr)
            return 1
    else:
        config = ServiceConfig(
            graph=GraphSpec(args.topology, args.n),
            fault=args.fault,
            seed=args.seed,
            checkpoint_every=args.checkpoint_every,
            batch_window=args.batch_window,
        )
        daemon = HealerDaemon.create(args.db, config)
        print(f"started fresh run: {config.describe()} -> {args.db}")

    server = None
    if args.status_port is not None:
        server = daemon.serve_status(port=args.status_port)
        print(f"status endpoint: {server.url}")
        if args.port_file:
            Path(args.port_file).write_text(str(server.port))

    try:
        drive_churn(daemon, args.ops)
        daemon.checkpoint()
        if args.rejoin_stale:
            rejoin = daemon.rejoin_stale()
            print(
                f"rejoin: victim={rejoin.victim!r} stale={rejoin.stale!r} "
                f"rolled_back={rejoin.records_rolled_back} "
                f"sweeps={rejoin.sweeps} retransmissions={rejoin.retransmissions} "
                f"converged={rejoin.converged} audit_clean={rejoin.audit_clean} "
                f"verified={rejoin.verified}"
            )
            if not (rejoin.converged and rejoin.audit_clean and rejoin.verified):
                print("rejoin healing FAILED", file=sys.stderr)
                return 1
        daemon.healer.verify_consistency()
        status = daemon.status()
        if args.status_json:
            Path(args.status_json).write_text(json.dumps(status, indent=2))
        print(json.dumps(status, indent=2))
    finally:
        if server is not None:
            server.stop()
        daemon.store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
