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
network included: any hashable works, and :class:`NodeKey` gives them the
one canonical total order every deterministic tie-break relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

#: Type alias for processor identifiers.  Anything hashable works (ints,
#: strings, tuples); experiments in this repository use ints and strings.
NodeId = Hashable


@dataclass(frozen=True, order=True)
class Port:
    """The *real node* owned by ``processor`` for the ``G'`` edge to ``neighbor``.

    A port is a stable name: it refers to the same conceptual object for the
    whole lifetime of the edge ``(processor, neighbor)`` in ``G'``, regardless
    of whether ``neighbor`` is still alive.  Ports of dead processors are
    discarded together with the processor.
    """

    processor: NodeId
    neighbor: NodeId

    def reversed(self) -> "Port":
        """Return the port at the other end of the same ``G'`` edge."""
        return Port(self.neighbor, self.processor)

    # Ports key every table of the data structure and order every merge, so
    # their hash and repr sit on the engine's hot paths; both are memoized on
    # first use (the instance is frozen, so they can never go stale).  The
    # repr string matches the dataclass-generated format exactly — merge
    # tie-breaking orders predate the memoization and must not change.
    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.processor, self.neighbor))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        cached = self.__dict__.get("_repr")
        if cached is None:
            cached = f"Port(processor={self.processor!r}, neighbor={self.neighbor!r})"
            object.__setattr__(self, "_repr", cached)
        return cached

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"port({self.processor}|{self.neighbor})"


#: Types whose native ``<`` is a *total* order.  Anything else (sets order by
#: subset, third-party types may do anything) compares by repr: a partial
#: order mixed with a repr fallback is not transitive and would silently
#: break the canonical sort.
_NATURALLY_ORDERED = (int, float, str, bytes)


class NodeKey:
    """Deterministic total order on node identifiers.

    Nodes are grouped by type name, then compared by their *natural* order
    within the type (``2 < 10`` for ints, lexicographic for strings) when the
    type's ``<`` is known to be total, falling back to ``repr`` otherwise.
    Unlike plain repr comparison, this order is invariant under
    order-preserving relabelings: two isomorphic graphs whose ids map
    monotonically onto each other tie-break identically, which is what makes
    merge orders (``compute_haft``) reproducible across id types.
    """

    __slots__ = ("type_name", "value")

    def __init__(self, value: NodeId) -> None:
        self.type_name = type(value).__name__
        self.value = value

    def __lt__(self, other: "NodeKey") -> bool:
        if self.type_name != other.type_name:
            return self.type_name < other.type_name
        a, b = self.value, other.value
        if isinstance(a, _NATURALLY_ORDERED) and isinstance(b, _NATURALLY_ORDERED):
            return a < b
        return repr(a) < repr(b)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NodeKey)
            and self.type_name == other.type_name
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return hash((self.type_name, repr(self.value)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeKey({self.value!r})"


def node_order_key(node: NodeId) -> NodeKey:
    """The canonical total-order key for a node identifier (see :class:`NodeKey`)."""
    return NodeKey(node)


def port_order_key(port: "Port") -> tuple:
    """Total-order key for a :class:`Port` built from its node ids' natural order."""
    return (NodeKey(port.processor), NodeKey(port.neighbor))


def sorted_nodes(nodes) -> list:
    """Deterministic ordering of possibly mixed-type node identifiers.

    This is the *canonical* node order of the repository: adversary
    strategies (including the incremental heap trackers), the CSR snapshots
    and the retained reference measurement all index into it, and the
    sampled-stretch equivalence between ``stretch_report`` and
    ``stretch_report_reference`` relies on every caller ordering identically
    — do not fork local copies.  The order is :class:`NodeKey`'s total order
    (natural within a type), so it is stable under order-preserving id
    relabelings.
    """
    return sorted(nodes, key=NodeKey)


def edge_key(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Return a canonical, order-independent key for the undirected edge ``{u, v}``.

    ``G'`` is an undirected graph; both ``(u, v)`` and ``(v, u)`` must map to
    the same record.  Endpoints are ordered by :class:`NodeKey`, the
    repository's canonical total order on node ids.
    """
    if u == v:
        raise ValueError(f"self-loop edge ({u!r}, {v!r}) is not allowed")
    return (u, v) if not NodeKey(v) < NodeKey(u) else (v, u)
