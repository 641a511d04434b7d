#!/usr/bin/env python
"""Run the Forgiving Graph healer as a crash-recoverable, long-lived service.

The whole service story in one script: a :class:`~repro.service.HealerDaemon`
on a sqlite checkpoint store accepts churn from two concurrent client
streams (every operation journalled durably before it is applied, deletions
healed through the concurrent ``delete_batch`` admission path), serves live
repair-latency percentiles over its JSON status endpoint, then "crashes"
with an unpumped journal tail.  :meth:`~repro.service.HealerDaemon.restore`
replays the last checkpoint plus the journal and certifies the recovered
fabric against the oracle, and :meth:`~repro.service.HealerDaemon.rejoin_stale`
restarts one repair participant from a stale checkpoint image mid-repair —
a digest divergence the gossip recovery layer heals with real
retransmissions.

Run with::

    python examples/service_demo.py
"""

from __future__ import annotations

import json
import random
import tempfile
import urllib.request
from pathlib import Path

from repro.generators import GraphSpec
from repro.service import HealerDaemon, ServiceConfig


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="service_demo_"))
    db_path = workdir / "run.db"

    # The typed config surface: topology, fault axis and service knobs in
    # one JSON-round-trippable object, persisted in the store so a restart
    # reconstructs exactly this configuration.
    config = ServiceConfig(
        graph=GraphSpec("power_law", 48),
        seed=7,
        checkpoint_every=12,
        batch_window=4,
    )
    daemon = HealerDaemon.create(db_path, config)
    print(f"daemon up: {config.describe()} -> {db_path}")

    # -- churn from two concurrent client streams -------------------------- #
    rng = random.Random(7)
    alice, bob = daemon.client("alice"), daemon.client("bob")
    next_id = 10_000
    for step in range(60):
        client = alice if step % 2 == 0 else bob
        alive = sorted(daemon._projected_alive, key=repr)
        if rng.random() < 0.3 or len(alive) <= 4:
            client.insert(next_id, rng.sample(alive, min(3, len(alive))))
            next_id += 1
        else:
            client.delete(rng.choice(alive))
        # Pump in batches; the last few submissions stay journalled but
        # unapplied — that tail is what makes the crash below interesting.
        if step % 8 == 7 and step < 54:
            daemon.pump()

    # -- live observability: the same GET /status a monitor would hit ------ #
    server = daemon.serve_status(port=0)
    with urllib.request.urlopen(server.url, timeout=10) as response:
        live = json.loads(response.read())
    print(
        f"live status ({server.url}): {live['ops_applied']} ops applied "
        f"({live['inserts']} inserts, {live['deletes']} deletes), "
        f"p50={live['latency_ms']['p50']}ms p99={live['latency_ms']['p99']}ms, "
        f"fixed point silent {live['recovery']['fixed_point_silent']}/"
        f"{live['recovery']['fixed_point_silent'] + live['recovery']['fixed_point_noisy']}, "
        f"{live['checkpoints_written']} checkpoints, backlog={live['backlog']}"
    )

    # -- crash: drop the daemon with the tail journalled but unapplied ----- #
    daemon.close()
    del daemon
    print("crashed (journal tail durable but unapplied)")

    # -- restore: checkpoint + journal replay, certified against the oracle - #
    daemon, restart = HealerDaemon.restore(db_path)
    print(
        f"restored from checkpoint seq={restart.checkpoint_seq}: "
        f"{restart.prefix_ops} prefix ops (oracle replay) + "
        f"{restart.suffix_ops} suffix ops (full protocol path), "
        f"converged={restart.converged} audit_clean={restart.audit_clean} "
        f"verified={restart.verified}"
    )

    # -- stale rejoin: a processor restarts from an old checkpoint image ---- #
    # Mid-repair, one participant is rolled back to the state the last
    # checkpoint recorded.  Its records now diverge from what the fabric
    # negotiated — a digest divergence the gossip anti-entropy layer
    # detects and heals with real retransmissions, no oracle involved.
    rejoin = daemon.rejoin_stale()
    print(
        f"stale rejoin: victim={rejoin.victim!r} stale processor={rejoin.stale!r}, "
        f"{rejoin.records_rolled_back} records rolled back -> healed in "
        f"{rejoin.sweeps} sweeps with {rejoin.retransmissions} retransmissions, "
        f"converged={rejoin.converged} audit_clean={rejoin.audit_clean} "
        f"verified={rejoin.verified}"
    )

    daemon.healer.verify_consistency()
    print(f"final fabric: {daemon.healer.num_alive} alive / "
          f"{daemon.healer.nodes_ever} ever, consistent with the oracle")
    daemon.close()


if __name__ == "__main__":
    main()
