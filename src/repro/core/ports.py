"""Identifiers used throughout the Forgiving Graph data structure.

The paper (Table 1 and Figure 6) attaches state to *edges* of ``G'`` rather
than to processors: for an edge ``(v, x)`` of ``G'`` the processor ``v`` owns

* exactly one *real node* (we call it a **port**) which appears as a leaf of
  a reconstruction tree once ``x`` has been deleted, and
* at most one *helper node*, simulated by ``v``, which appears as an internal
  node of a reconstruction tree.

Modelling ports explicitly keeps Lemma 3 ("at most one helper node per edge")
checkable as a run-time invariant and makes the homomorphism from the virtual
graph onto the real network a one-liner (a port or helper maps to its owning
processor).

Node identifiers are used as they are everywhere, the message-passing
network included: any hashable works, and :func:`node_order_key` gives them
the one canonical total order every deterministic tie-break relies on.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple

#: Type alias for processor identifiers.  Anything hashable works (ints,
#: strings, tuples); experiments in this repository use ints and strings.
NodeId = Hashable


class Port(NamedTuple):
    """The *real node* owned by ``processor`` for the ``G'`` edge to ``neighbor``.

    A port is a stable name: it refers to the same conceptual object for the
    whole lifetime of the edge ``(processor, neighbor)`` in ``G'``, regardless
    of whether ``neighbor`` is still alive.  Ports of dead processors are
    discarded together with the processor.

    Ports key every table of the data structure and order every merge, so
    the type is a tuple: hashing, equality and ordering run in C.  A port
    therefore equals, and hashes like, the plain pair ``(processor,
    neighbor)``; no container mixes ports with plain pairs of node ids as
    keys, and a Port-keyed table is looked up by the plain pair, so a
    lookup builds no Port (the engine's registries, the planner).  The
    repr, ``Port(processor=1, neighbor='a')``, is part of every message seal
    (:func:`repro.distributed.messages.payload_checksum`).  Code that
    dispatches on type must test ``Port`` before ``tuple``.
    """

    processor: NodeId
    neighbor: NodeId

    def reversed(self) -> "Port":
        """Return the port at the other end of the same ``G'`` edge."""
        return Port(self.neighbor, self.processor)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"port({self.processor}|{self.neighbor})"


#: Types whose native ``<`` is a *total* order.  Anything else (sets order by
#: subset, third-party types may do anything) compares by repr: a partial
#: order mixed with a repr fallback is not transitive and would silently
#: break the canonical sort.
_NATURALLY_ORDERED = (int, float, str, bytes)


def node_order_key(node: NodeId) -> tuple:
    """The canonical total-order key of a node identifier, as a plain tuple.

    Nodes are grouped by type name, then compared by their *natural* order
    within the type (``2 < 10`` for ints, lexicographic for strings) when the
    type's ``<`` is known to be total, falling back to ``repr`` otherwise: the
    key is ``(type name, node)`` for ``int``/``float``/``str``/``bytes`` and
    their subclasses, ``(type name + "\\x00", repr(node))`` for anything else.
    The NUL suffix keeps the two kinds apart when two classes share one
    ``__name__`` and leaves the order between distinct type names as it is.
    Keys are tuples, so comparing and sorting them runs in C.

    Unlike plain repr comparison, this order is invariant under
    order-preserving relabelings: two isomorphic graphs whose ids map
    monotonically onto each other tie-break identically, which is what makes
    merge orders (``compute_haft``) reproducible across id types.
    """
    if isinstance(node, _NATURALLY_ORDERED):
        return (type(node).__name__, node)
    return (type(node).__name__ + "\x00", repr(node))


def port_order_key(port: "Port") -> tuple:
    """Total-order key for a :class:`Port` built from its node ids' natural order."""
    return (node_order_key(port.processor), node_order_key(port.neighbor))


def sorted_nodes(nodes) -> list:
    """Deterministic ordering of possibly mixed-type node identifiers.

    This is the *canonical* node order of the repository: adversary
    strategies (including the incremental heap trackers), the CSR snapshots
    and the retained reference measurement all index into it, and the
    sampled-stretch equivalence between ``stretch_report`` and
    ``stretch_report_reference`` relies on every caller ordering identically
    — do not fork local copies.  The order is :func:`node_order_key`'s total
    order (natural within a type), so it is stable under order-preserving id
    relabelings.
    """
    return sorted(nodes, key=node_order_key)


def edge_key(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Return a canonical, order-independent key for the undirected edge ``{u, v}``.

    ``G'`` is an undirected graph; both ``(u, v)`` and ``(v, u)`` must map to
    the same record.  Endpoints are ordered by :func:`node_order_key`, the
    repository's canonical total order on node ids.
    """
    if u == v:
        raise ValueError(f"self-loop edge ({u!r}, {v!r}) is not allowed")
    return (u, v) if not node_order_key(v) < node_order_key(u) else (v, u)
