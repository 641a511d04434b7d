"""Incremental survivor-degree tracking for adversary strategies.

The targeted strategies (max/min degree deletion, star insertion) need the
extremum of the healed degree over all survivors on *every* adversarial move.
The reference implementations scan and sort the whole alive set per move —
O(n log n) even when a repair touched a handful of nodes.  This module keeps
a lazy heap over ``(degree, node)`` pairs that is refreshed from the engine's
*degree-touch journal* (:attr:`repro.core.ForgivingGraph.degree_touch_log`):
every repair appends the nodes whose healed degree it touched, and the
tracker re-pushes those of them whose degree differs from the one it last
pushed for them (deduplicated per drain), so the per-move cost is
O(delta log n) — proportional to the repair, not to the graph.

Correctness rests on one invariant: *for every alive node, the heap contains
at least one entry carrying its current healed degree.*  Seeding at bind time
establishes it; the journal keeps it (every degree change journals the node,
and draining pushes the node with its degree at drain time unless the entry
it last pushed already carries that degree); entries are never removed
except when proven stale, and a node's last pushed entry is never stale at
a pick, since every change to its degree since was drained first.  Popping
therefore works lazily: the top entry wins iff its owner is still alive and
its stored degree matches the current one, otherwise it is stale and
discarded — any fresher entry for the same node sits elsewhere in the heap.

Stale entries below the top are never popped, so a long attack would let
the heap grow with every touch.  Once it holds more than
``REBUILD_FACTOR * alive + REBUILD_SLACK`` entries, a drain rebuilds it from
the current degrees, one entry per survivor.  Picks cannot change: an entry
orders on ``(degree, node_order_key)`` before its sequence number, and no two
survivors share an order key.

Healers that do not expose the journal (the baselines) are detected by
:func:`SurvivorDegreeTracker.supports`, and the strategies fall back to the
retained sorted reference scan.  Degrees are read through the healer's O(1)
``actual_degree`` accessor, never through a graph view: a fresh networkx view
and its cached ``DegreeView`` form a reference cycle that only the cyclic
garbage collector frees, and the tracker reads degrees on every move.
"""

from __future__ import annotations

import heapq
import weakref
from typing import Dict, List, Optional, Tuple

from ..core.ports import NodeId, node_order_key

__all__ = ["SurvivorDegreeTracker"]

#: A drain rebuilds the heap once it holds more than
#: ``REBUILD_FACTOR * alive + REBUILD_SLACK`` entries.
REBUILD_FACTOR = 2
REBUILD_SLACK = 64


class SurvivorDegreeTracker:
    """Lazy heap over survivors' healed degrees, fed by the engine's touch journal.

    Parameters
    ----------
    largest:
        True tracks the maximum-degree survivor, False the minimum-degree
        one.  Ties break to the first node in the repository's canonical
        order (:func:`repro.core.ports.node_order_key`), matching the reference
        scans exactly.
    """

    __slots__ = ("_largest", "_heap", "_cursor", "_journal_cursor", "_seq", "_healer_ref", "_last")

    def __init__(self, largest: bool = True) -> None:
        self._largest = largest
        self._heap: List[Tuple[int, tuple, int, NodeId]] = []
        self._cursor = 0
        #: Registered journal cursor: pins the undrained suffix against
        #: :meth:`ForgivingGraph.compact_journals` (held weakly by the
        #: journal, so a dropped tracker stops blocking compaction).
        self._journal_cursor = None
        self._seq = 0
        self._healer_ref: Optional[weakref.ref] = None
        #: Per node, the entry last pushed for it: its degree, which a drain
        #: compares before pushing again, beside its order key (immutable
        #: per node, so every entry of a node shares one key).  Rebuilt to
        #: the survivors with the heap.
        self._last: Dict[NodeId, Tuple[int, tuple, int, NodeId]] = {}

    @staticmethod
    def supports(healer) -> bool:
        """True when ``healer`` exposes the degree-touch journal this tracker needs."""
        return getattr(healer, "degree_touch_log", None) is not None

    # ------------------------------------------------------------------ #
    def pick(self, healer) -> Optional[NodeId]:
        """The alive node with extremal healed degree, or ``None`` if none are alive.

        Binds to ``healer`` on first use (or when handed a different healer)
        by seeding the heap from the full alive set; afterwards each call
        drains only the journal suffix written since the previous call.
        """
        bound = self._healer_ref() if self._healer_ref is not None else None
        if bound is not healer:
            self._bind(healer)
        else:
            self._drain(healer)
        return self._peek(healer)

    # ------------------------------------------------------------------ #
    def _sign(self, degree: int) -> int:
        return -degree if self._largest else degree

    def _bind(self, healer) -> None:
        self._healer_ref = weakref.ref(healer)
        log = healer.degree_touch_log
        self._cursor = len(log)
        register = getattr(log, "register_cursor", None)
        self._journal_cursor = register(self._cursor) if register is not None else None
        self._seed(healer)

    def _seed(self, healer) -> None:
        """Fill the heap with one current entry per survivor; those become
        the survivors' last pushed entries, and a dead node's is forgotten."""
        degree = healer.actual_degree
        cached, last = self._last, {}
        entries: List[Tuple[int, tuple, int, NodeId]] = []
        for seq, node in enumerate(healer.alive_nodes):
            previous = cached.get(node)
            key = previous[1] if previous is not None else node_order_key(node)
            entry = last[node] = (self._sign(degree(node)), key, seq, node)
            entries.append(entry)
        self._last = last
        self._seq = len(entries)
        heapq.heapify(entries)
        self._heap = entries

    def _drain(self, healer) -> None:
        log = healer.degree_touch_log
        if self._cursor >= len(log):
            return
        # Repairs journal the same processor many times (once per destroyed /
        # created edge source); one push per distinct node per drain suffices.
        touched = set(log[self._cursor : len(log)])
        self._cursor = len(log)
        if self._journal_cursor is not None:
            self._journal_cursor.advance_to(self._cursor)
        degree = healer.actual_degree
        is_alive = healer.is_alive
        heap, last = self._heap, self._last
        for node in touched:
            if is_alive(node):
                sign = self._sign(degree(node))
                previous = last.get(node)
                if previous is not None and previous[0] == sign:
                    continue  # the entry last pushed still carries this degree
                key = node_order_key(node) if previous is None else previous[1]
                self._seq += 1
                entry = last[node] = (sign, key, self._seq, node)
                heapq.heappush(heap, entry)
        if len(heap) > REBUILD_FACTOR * healer.num_alive + REBUILD_SLACK:
            self._seed(healer)

    def _peek(self, healer) -> Optional[NodeId]:
        degree = healer.actual_degree
        is_alive = healer.is_alive
        heap = self._heap
        while heap:
            stored_sign, _node_key, _seq, node = heap[0]
            if is_alive(node) and stored_sign == self._sign(degree(node)):
                return node
            heapq.heappop(heap)
        return None
