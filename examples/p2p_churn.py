#!/usr/bin/env python
"""Peer-to-peer churn: nodes join and leave continuously, the overlay self-heals.

This is the scenario the paper's introduction motivates: a peer-to-peer
overlay where an omniscient adversary controls which peers leave (always the
currently most-loaded ones) while new peers keep joining.  The example drives
a long churn schedule through the unified :class:`repro.engine.AttackSession`
and consumes its *streaming* events: measurement rows arrive while the attack
is still running (the same mechanism the sweep harness uses to stream JSONL),
showing the degree factor and the stretch staying pinned under their
Theorem 1 bounds while the network composition turns over almost completely.

Run with::

    python examples/p2p_churn.py

Scaling
-------
The second act shows the large-n machinery.  For sweeps past what one
process should hold, ``repro.experiments.sweep_large_n`` splits the node
space into disjoint sub-networks: repairs in different shards can never
share a spine (the fine-grained version of this test is
``repro.experiments.repair_footprint``), so the shards fan out over the
deterministic-seed process pool and the rows come back bit-identical at
any worker count.  Inside each shard the message-passing healer keeps one
adjacency dict and one link-source table keyed by node identifier, and one
slotted Table 1 record per ``G'`` edge.

Shared fabric
-------------
The fourth act shows the shared-network scale path:
``sweep_large_n(shared_network=True)`` drops the sharding entirely and
churns the whole graph as ONE :class:`~repro.distributed.Network` — one
outbox, one metrics ledger — by repeatedly feeding ``delete_batch`` a
disjoint-footprint victim burst until the deletion budget is spent.  The
row times the three phases separately: building the network, the churn
itself (``deletions_per_sec`` divides by this alone) and the closing
oracle check.

Bursts
------
The third act shows concurrent repairs (PR 8): a *burst* of simultaneous
departures whose repair footprints are pairwise disjoint is healed in one
shared message fabric — every repair message carries its victim as epoch
tag, all repairs interleave in the same ``deliver_round`` stream, and each
epoch's anti-entropy gossip rides along in the background until its
fixed-point probe goes silent.  The burst's round count trends to the
*maximum* of the individual repair latencies instead of their sum;
``delete_batch(concurrency=1)`` replays the same burst one repair at a
time, each repair still followed by its background recovery.
"""

from __future__ import annotations

import os
import time

from repro import AttackSession, ForgivingGraph
from repro.adversary import MaxDegreeDeletion, PreferentialInsertion, churn_schedule
from repro.experiments import AttackConfig, format_table, sweep_large_n
from repro.generators import make_graph


def main() -> None:
    initial_peers = 150
    churn_steps = 300

    overlay = ForgivingGraph.from_graph(make_graph("power_law", initial_peers, seed=42))
    schedule = churn_schedule(
        steps=churn_steps,
        delete_probability=0.55,
        deletion_strategy=MaxDegreeDeletion(),          # the adversary always kills the busiest peer
        insertion_strategy=PreferentialInsertion(k=3, seed=7),
        seed=7,
    )
    session = AttackSession(
        overlay,
        schedule,
        healer_name="forgiving_graph",
        stretch_sources=32,
        seed=0,
        measure_every=50,
    )

    rows = []
    for event in session.stream():
        if event.report is None:
            continue
        report = event.report
        rows.append(
            {
                "step": event.step,
                "alive_peers": report.alive,
                "peers_ever": report.n_ever,
                "degree_factor": round(report.degree_factor, 2),
                "stretch": round(report.stretch, 2),
                "stretch_bound(log2 n)": round(report.stretch_bound, 2),
                "connected": report.connected,
            }
        )

    result = session.result
    final = result.final_report
    rows.append(
        {
            "step": result.steps,
            "alive_peers": final.alive,
            "peers_ever": final.n_ever,
            "degree_factor": round(final.degree_factor, 2),
            "stretch": round(final.stretch, 2),
            "stretch_bound(log2 n)": round(final.stretch_bound, 2),
            "connected": final.connected,
        }
    )

    print(
        f"churn finished: {result.insertions} joins, "
        f"{result.deletions} adversarial departures "
        f"in {result.wall_clock_seconds:.2f}s\n"
    )
    print(format_table(rows, title="overlay health during churn"))
    print("Every row stays under the Theorem 1 bounds even though the adversary")
    print("always removes the currently busiest peer.")

    scaling_demo()
    burst_demo()
    shared_network_demo()


def scaling_demo(total_peers: int = 2_000, shards: int = 4) -> None:
    """Sharded large-n churn on the message-passing healer."""
    print(f"\nscaling: {total_peers} peers as {shards} independent shards")
    workers = min(shards, os.cpu_count() or 1)
    start = time.perf_counter()
    rows = sweep_large_n(
        "p2p-scaling",
        "erdos_renyi",
        total_peers,
        shards,
        attack=AttackConfig(strategy="random", delete_fraction=0.02, delete_probability=0.9),
        seed=7,
        stretch_sources=8,
        max_workers=workers if workers > 1 else None,
    )
    elapsed = time.perf_counter() - start
    print(
        format_table(
            [
                {
                    "shard": row["experiment"],
                    "peers": row["n0"],
                    "departures": row["deletions"],
                    "joins": row["insertions"],
                    "stretch": row["stretch"],
                    "connected": row["connected"],
                }
                for row in rows
            ],
            title="per-shard outcomes (bit-identical at any worker count)",
        )
    )
    print(
        f"{total_peers} peers churned in {elapsed:.2f}s "
        f"({total_peers / elapsed:,.0f} peers/sec, workers={workers}); "
        "repairs in different shards share no spine, so the pool never races."
    )


def burst_demo(peers: int = 120) -> None:
    """A burst of simultaneous departures healed concurrently in one fabric."""
    from repro.core.ports import node_order_key
    from repro.core.views import g_prime_view_of
    from repro.distributed.simulator import DistributedForgivingGraph
    from repro.experiments import select_disjoint_victims

    graph = make_graph("power_law", peers, seed=42)
    probe = DistributedForgivingGraph.from_graph(graph)
    degree = g_prime_view_of(probe).degree
    candidates = [
        v
        for v in sorted(probe.alive_nodes, key=lambda v: (-degree[v], node_order_key(v)))
        if degree[v] >= 3
    ]
    # Skip the biggest hubs — their repair footprints blanket the overlay;
    # the next tier down yields a genuinely disjoint burst.
    victims = select_disjoint_victims(probe, candidates[5:], limit=8)
    print(f"\nburst: {len(victims)} peers depart simultaneously")

    sequential = DistributedForgivingGraph.from_graph(graph)
    seq = sequential.delete_batch(victims, concurrency=1)
    concurrent = DistributedForgivingGraph.from_graph(graph)
    conc = concurrent.delete_batch(victims, concurrency=None)
    concurrent.verify_consistency()

    rows = [
        {
            "admission": label,
            "waves": burst.waves,
            "rounds": burst.rounds,
            "messages": sum(r.messages for r in burst.reports),
            "silent_fixed_point": all(
                r.recovery is not None and r.recovery.fixed_point_messages == 0
                for r in burst.reports
            ),
        }
        for label, burst in (("one-at-a-time", seq), ("concurrent", conc))
    ]
    print(format_table(rows, title="burst repair cost: latency ~ max, not ~ sum"))
    print(
        f"concurrent admission healed the burst in {conc.rounds} rounds vs "
        f"{seq.rounds} sequential ({conc.rounds / seq.rounds:.0%}); every "
        "epoch's background anti-entropy went provably silent."
    )


def shared_network_demo(total_peers: int = 3_000) -> None:
    """Delete-heavy churn on ONE shared network, its phases timed apart."""
    print(f"\nshared fabric: {total_peers} peers churned on a single network")
    rows = sweep_large_n(
        "p2p-shared-fabric",
        "erdos_renyi",
        total_peers,
        1,
        attack=AttackConfig(strategy="random", delete_fraction=0.02, delete_probability=1.0),
        seed=11,
        shared_network=True,
    )
    row = rows[0]
    print(
        format_table(
            [
                {
                    "peers": row["n"],
                    "departures": f"{row['deletions']}/{row['deletion_target']}",
                    "waves": row["waves"],
                    "rounds": row["rounds"],
                    "build s": row["build_seconds"],
                    "churn s": row["churn_seconds"],
                    "departures/sec": f"{row['deletions_per_sec']:,.0f}",
                    "verify s": row["verify_seconds"],
                    "connected": row["connected"],
                }
            ],
            title="one network, one outbox (sweep_large_n(shared_network=True))",
        )
    )
    print(
        f"{row['waves']} disjoint-footprint bursts healed back-to-back in "
        f"{row['rounds']} rounds on a single network; departures/sec counts "
        "the churn alone, not the network build."
    )


if __name__ == "__main__":
    main()
