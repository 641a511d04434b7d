#!/usr/bin/env python
"""Quickstart: heal a small network under adversarial deletions.

This example builds a small peer-to-peer style network and plays a scripted
adversarial attack through :class:`repro.engine.AttackSession` — the unified
step loop (adversary move → self-healing repair → incremental measurement)
that every workload in this repository drives:

.. code-block:: python

    from repro import AttackSession, ForgivingGraph
    from repro.adversary import AttackSchedule, ScriptedDeletion

    fg = ForgivingGraph.from_edges(edges)
    schedule = AttackSchedule(steps=3, deletion_strategy=ScriptedDeletion([...]))
    for event in AttackSession(fg, schedule).stream():
        ...                      # typed per-step events, measurements included

It then shows the three graph views the library maintains, together with the
Theorem 1 guarantees:

* ``G'``  — everything that was ever inserted (the yardstick),
* ``G``   — the actual healed network after the repairs,
* the reconstruction trees that stand in for the deleted nodes.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import networkx as nx

from repro import AttackSession, ForgivingGraph
from repro.adversary import AttackSchedule, ScriptedDeletion


def main() -> None:
    # A tiny "data centre": two rings of servers bridged by a gateway node.
    edges = [(i, (i + 1) % 6) for i in range(6)]                      # ring A: 0..5
    edges += [(10 + i, 10 + (i + 1) % 6) for i in range(6)]           # ring B: 10..15
    edges += [("gw", 0), ("gw", 10)]                                  # the gateway bridges them
    fg = ForgivingGraph.from_edges(edges, check_invariants=True)

    print("initial network:", fg)
    print("  edges:", sorted(tuple(sorted(map(str, e))) for e in fg.actual_graph().edges)[:6], "...")

    # The adversary strikes the gateway first — the worst possible cut vertex —
    # and then two ordinary ring nodes.  The session owns the loop; we watch
    # its typed event stream and read the repair details off the engine log.
    schedule = AttackSchedule(
        steps=3, deletion_strategy=ScriptedDeletion(["gw", 2, 12]), seed=0
    )
    # Measurement is manual in this walkthrough (we measure after a later
    # insertion), so the session's own final measurement is switched off.
    session = AttackSession(
        fg, schedule, healer_name="forgiving_graph", measure_every=0, measure_final=False
    )
    for event in session.stream():
        report = fg.last_event.report
        print(
            f"deleted {event.node!r}: repair merged {report.merged_complete_trees} pieces "
            f"into an RT of {report.new_rt_size} leaves "
            f"({report.helpers_created} helper nodes created)"
        )

    # A new peer joins afterwards (insertions need no repair work at all).
    fg.insert("newcomer", attach_to=[0, 10])
    print("inserted 'newcomer' attached to both rings")

    healed = fg.actual_graph()
    print("\nhealed network:")
    print("  alive nodes:", sorted(map(str, healed.nodes)))
    print("  connected:", nx.is_connected(healed))

    report = session.measure_now()
    print("\nTheorem 1 check:")
    print(f"  degree factor : {report.degree_factor:.2f}   (paper bound: 3, hard bound: 4)")
    print(f"  stretch       : {report.stretch:.2f}   (bound log2(n) = {report.stretch_bound:.2f})")
    print(f"  within bounds : degree={report.degree_ok}, stretch={report.stretch_ok}")

    print("\nreconstruction trees currently standing in for deleted nodes:")
    for rt in fg.reconstruction_trees():
        owners = sorted(map(str, rt.processors()))
        print(f"  RT#{rt.rt_id}: {rt.size} leaves, depth {rt.depth}, simulated by {owners}")


if __name__ == "__main__":
    main()
