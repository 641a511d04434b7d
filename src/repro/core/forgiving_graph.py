"""The Forgiving Graph engine — Sections 2, 3 and 5 of the paper.

:class:`ForgivingGraph` is the centralized reference implementation of the
paper's self-healing algorithm.  It maintains three views of the network:

``G'`` (:meth:`ForgivingGraph.g_prime_view`)
    the graph of all original nodes plus adversarial insertions, ignoring
    deletions and healings.  This is the yardstick against which the degree
    and stretch guarantees are stated.

the *virtual graph* (:meth:`ForgivingGraph.virtual_graph`)
    surviving real edges plus the reconstruction trees (RTs) replacing the
    deleted nodes; leaves of RTs are edge-ports, internal nodes are helper
    nodes simulated by real processors.

``G`` (:meth:`ForgivingGraph.actual_graph`)
    the actual healed network: the homomorphic image of the virtual graph
    obtained by mapping every port and helper to its owning processor and
    dropping self-loops.  All guarantees of Theorem 1 are measured on ``G``.
    The engine maintains ``G`` *incrementally*: every healed edge has a
    number of sources (one per surviving real edge, one per RT virtual
    edge projecting onto it; see :meth:`ForgivingGraph.edge_multiplicity`),
    and repairs apply exact deltas — only the broken RT glue ever gains or
    loses sources.  Zero-copy read access is available through
    :meth:`ForgivingGraph.actual_view` /
    :meth:`ForgivingGraph.g_prime_graph_view`; per-node reads on a repair's
    path (``actual_degree``, ``g_prime_degree``, ``actual_neighbors``,
    ``g_prime_neighbors``) build no view at all.  The from-scratch builder
    is retained as ``_rebuild_actual()`` for cross-checking.

The distributed message-passing version of the same algorithm lives in
:mod:`repro.distributed`; it drives repairs through explicit messages so the
communication costs of Lemma 4 can be measured, and it can be cross-checked
against this engine.

Typical usage::

    from repro import ForgivingGraph

    fg = ForgivingGraph.from_edges([(0, 1), (1, 2), (2, 3)])
    fg.delete(1)                       # adversarial deletion + self-healing
    fg.insert(4, attach_to=[0, 3])     # adversarial insertion
    g = fg.actual_graph()              # healed networkx graph
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import networkx as nx

from .errors import (
    DeletedNodeError,
    DuplicateNodeError,
    InvalidEdgeError,
    InvariantViolationError,
    UnknownNodeError,
)
from .graph_fill import (
    add_edge,
    add_node,
    copy_rows,
    edge_pairs,
    fill_graph,
    fill_graph_from_rows,
    loopless_degree,
    remove_edge,
)
from .journal import Journal
from .ports import NodeId, Port
from .reconstruction_tree import (
    ReconstructionTree,
    RTLeaf,
    RTNode,
    compute_haft,
    extract_surviving_complete_trees,
)

__all__ = ["ForgivingGraph", "RepairReport", "HealingEvent"]


@dataclass
class RepairReport:
    """Summary of the self-healing work performed for a single deletion.

    The fields mirror the quantities bounded by Theorem 1.3 / Lemma 4 and are
    consumed by the repair-cost experiments (E5 in DESIGN.md).
    """

    deleted_node: NodeId
    #: Degree of the deleted node in ``G'`` at deletion time (the ``d`` of Lemma 4).
    degree_in_g_prime: int
    #: Degree of the deleted node in the healed graph ``G`` just before deletion.
    degree_in_actual: int
    #: Number of reconstruction trees (or fragments) merged by this repair.
    merged_rts: int
    #: Number of complete trees the merge combined (after stripping fragments).
    merged_complete_trees: int
    #: Leaves of the reconstruction tree produced by the repair (0 if none).
    new_rt_size: int
    #: Helper nodes created by the repair.
    helpers_created: int
    #: Helper nodes discarded ("marked red") by the repair.
    helpers_released: int
    #: Edges of the healed graph added by the repair.
    edges_added: int
    #: Edges of the healed graph removed by the repair (beyond those lost with the node).
    edges_removed: int


@dataclass
class HealingEvent:
    """One insert or delete, as :attr:`ForgivingGraph.last_event` records it."""

    step: int
    kind: str  # "insert" or "delete"
    node: NodeId
    report: Optional[RepairReport] = None
    attached_to: Tuple[NodeId, ...] = ()


class ForgivingGraph:
    """Self-healing graph with the guarantees of Theorem 1.

    Parameters
    ----------
    check_invariants:
        When True (the default for graphs with at most ``invariant_check_limit``
        nodes), the full structural invariant suite is verified after every
        operation.  Turn it off for large benchmark runs.
    invariant_check_limit:
        Automatic invariant checking is skipped once ``G'`` grows beyond this
        many nodes (checking is quadratic-ish and meant for tests).
    """

    def __init__(
        self,
        check_invariants: bool = False,
        invariant_check_limit: int = 300,
    ) -> None:
        self._g_prime = nx.Graph()
        self._alive: Set[NodeId] = set()
        self._deleted: Set[NodeId] = set()
        # Reconstruction-tree bookkeeping -------------------------------------------------
        self._rts: Dict[int, ReconstructionTree] = {}
        self._rt_of_leaf: Dict[Port, ReconstructionTree] = {}
        self._rt_of_helper: Dict[Port, ReconstructionTree] = {}
        # Incrementally-maintained healed graph ``G`` -------------------------------------
        # ``G`` is the image of the virtual graph under the processor projection,
        # so one healed edge can have several sources (a surviving real edge and
        # any number of RT virtual edges between the same two processors).
        # An edge lives in ``_actual`` exactly while it has a source, and its
        # presence there counts the first one; ``_extra_sources`` counts the
        # sources beyond the first, only for the few edges that have more,
        # under both orientations ``(u, v)`` and ``(v, u)`` so that a lookup
        # keys by the pair as given.  That lets delete() apply per-repair
        # deltas instead of rebuilding ``G`` from scratch.  ``_num_edges``
        # counts the edges of ``_actual`` (networkx counts them in O(n)).
        # Every node of ``G'`` and ``G`` holds graph_fill.NODE_DATA and every
        # edge graph_fill.EDGE_DATA, shared read-only empty mappings: only
        # graph_fill adds their nodes and writes their edges.
        self._actual = nx.Graph()
        self._extra_sources: Dict[Tuple[NodeId, NodeId], int] = {}
        self._num_edges = 0
        # Degree-touch journal --------------------------------------------------------------
        # Append-only log of nodes whose healed degree may have changed, fed by
        # the same edge-delta hooks that maintain ``G``.  Incremental consumers
        # (the adversary's heap trackers, see repro.adversary.incremental)
        # register a cursor and refresh only the touched nodes, so their
        # per-move cost is proportional to the repair delta instead of O(n).
        self._degree_touch_log: Journal[NodeId] = Journal()
        # Auditing -------------------------------------------------------------------------
        #: The latest insert or delete (``None`` before the first op); earlier
        #: events are not kept, so a long run holds one, not one per op.
        self.last_event: Optional[HealingEvent] = None
        self._step = 0
        self._check_invariants = check_invariants
        self._invariant_check_limit = invariant_check_limit

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[NodeId, NodeId]],
        nodes: Iterable[NodeId] = (),
        **kwargs,
    ) -> "ForgivingGraph":
        """Build a Forgiving Graph whose initial network ``G_0`` has the given edges.

        ``nodes`` come first (isolated ones included), then each edge's
        endpoints as it is read; a repeated edge is skipped and a self-loop
        raises :class:`InvalidEdgeError`.
        """
        fg = cls(**kwargs)
        fg._adopt_genesis(fill_graph(fg._g_prime, nodes, edges))
        fg._maybe_check()
        return fg

    @classmethod
    def from_graph(cls, graph: nx.Graph, **kwargs) -> "ForgivingGraph":
        """Build a Forgiving Graph from an existing networkx graph ``G_0``.

        Loads what ``from_edges(graph.edges, graph.nodes)`` would.
        """
        fg = cls(**kwargs)
        fg._load_genesis(graph)
        fg._maybe_check()
        return fg

    def _load_genesis(self, graph: nx.Graph) -> Iterator[Tuple[NodeId, NodeId]]:
        """Load ``G_0`` = ``graph`` into this empty engine; returns its edges in load order.

        ``G'`` is filled straight from ``graph``'s adjacency rows, in
        ``graph.nodes`` and ``graph.edges`` order, as one edge at a time
        would fill it (see :meth:`_adopt_genesis` for the rest).
        """
        return self._adopt_genesis(fill_graph_from_rows(self._g_prime, graph))

    def _adopt_genesis(self, endpoints: List[NodeId]) -> Iterator[Tuple[NodeId, NodeId]]:
        """Finish a genesis load once ``G'`` holds ``G_0``; returns its edges in load order.

        ``endpoints`` are the loaded edges' ends, ``u`` then ``v`` per edge,
        as :func:`~repro.core.graph_fill.fill_graph` returns them.  Writes
        what adding each node and then each edge one at a time would, in
        the same order: ``G``, which equals ``G'`` at genesis, is a
        row-for-row copy of it (every node holding the shared ``NODE_DATA``
        and every edge ``EDGE_DATA``), every node is alive, and each edge
        is one source of its healed edge and appends its endpoints, ``u``
        then ``v``, to the degree-touch journal.
        """
        copy_rows(self._actual, self._g_prime)
        # Iterating the graph (not passing a dict) adds the nodes one at a
        # time, so the set's table, and its iteration order, are the ones
        # one add() per node would leave.
        self._alive.update(self._g_prime)
        self._num_edges = len(endpoints) // 2
        self._degree_touch_log.extend(endpoints)
        return edge_pairs(endpoints)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def nodes_ever(self) -> int:
        """Total number of nodes seen so far (the ``n`` of the theorems)."""
        return self._g_prime.number_of_nodes()

    @property
    def num_alive(self) -> int:
        """Number of currently surviving nodes."""
        return len(self._alive)

    @property
    def alive_nodes(self) -> Set[NodeId]:
        """A copy of the set of surviving node identifiers."""
        return set(self._alive)

    @property
    def deleted_nodes(self) -> Set[NodeId]:
        """A copy of the set of deleted node identifiers."""
        return set(self._deleted)

    def is_alive(self, node: NodeId) -> bool:
        """True when ``node`` has been seen and not deleted."""
        return node in self._alive

    def __contains__(self, node: NodeId) -> bool:
        return node in self._alive

    def __len__(self) -> int:
        return len(self._alive)

    def reconstruction_trees(self) -> List[ReconstructionTree]:
        """The current reconstruction trees (non-trivial structure only)."""
        return list(self._rts.values())

    def affected_rt_nodes(
        self, node: NodeId
    ) -> Tuple[List[ReconstructionTree], Dict[int, List[RTNode]]]:
        """The RTs the deletion of ``node`` would dismantle, and the RT nodes dying in each.

        One walk of ``node``'s ``G'`` neighbours, each looked up in the leaf
        registry and then the helper registry: the RTs come in the order
        that walk first meets them, and each RT id maps to its leaves and
        helpers owned by ``node``, in the same order.  Used by the
        distributed layer to lay out the repair before the deletion is
        applied; :meth:`delete` makes the same walk.
        """
        if node not in self._g_prime:
            raise UnknownNodeError(node, "affected_rt_nodes")
        rt_of_leaf, rt_of_helper = self._rt_of_leaf, self._rt_of_helper
        affected: Dict[int, ReconstructionTree] = {}
        dead: Dict[int, List[RTNode]] = {}
        for neighbor in self._g_prime.neighbors(node):
            # The registries key by Port, which equals and hashes like the
            # plain pair: a lookup needs no Port of its own.
            own = (node, neighbor)
            rt = rt_of_leaf.get(own)
            if rt is not None:
                affected[rt.rt_id] = rt
                dead.setdefault(rt.rt_id, []).append(rt.leaves[own])
            rt = rt_of_helper.get(own)
            if rt is not None:
                affected[rt.rt_id] = rt
                dead.setdefault(rt.rt_id, []).append(rt.helpers[own])
        return list(affected.values()), dead

    # ------------------------------------------------------------------ #
    # the three graph views
    # ------------------------------------------------------------------ #
    def g_prime_view(self) -> nx.Graph:
        """Return a copy of ``G'``: all nodes/edges ever inserted, ignoring deletions."""
        return self._g_prime.copy()

    def g_prime_graph_view(self) -> nx.Graph:
        """Zero-copy read-only view of ``G'`` (raises on mutation attempts).

        Prefer this over :meth:`g_prime_view` in measurement code: the view
        shares the engine's adjacency structures, so taking one is O(1)
        regardless of graph size.  The view stays in sync with the engine —
        do not hold it across operations if a frozen snapshot is needed.
        """
        return self._g_prime.copy(as_view=True)

    def g_prime_degree(self, node: NodeId) -> int:
        """Degree of ``node`` in ``G'`` (the denominator of the degree guarantee)."""
        if node not in self._g_prime:
            raise UnknownNodeError(node, "g_prime_degree")
        return self._g_prime.degree[node]

    def g_prime_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterator over the neighbours of ``node`` in ``G'`` (O(1), no graph view).

        Like the views, it reads the engine's adjacency directly: do not
        hold it across operations.
        """
        if node not in self._g_prime:
            raise UnknownNodeError(node, "g_prime_neighbors")
        return self._g_prime.neighbors(node)

    def actual_graph(self) -> nx.Graph:
        """Return the healed network ``G`` (a copy; mutations do not affect the engine)."""
        return self._actual.copy()

    def actual_view(self) -> nx.Graph:
        """Zero-copy read-only view of the healed network ``G``.

        The healed graph is maintained incrementally across operations, so
        this accessor is O(1).  Like :meth:`g_prime_graph_view`, the view
        reflects future mutations of the engine.
        """
        return self._actual.copy(as_view=True)

    def actual_degree(self, node: NodeId) -> int:
        """Degree of ``node`` in the healed network ``G`` (O(1), no graph build)."""
        if node not in self._alive:
            raise UnknownNodeError(node, "actual_degree")
        return loopless_degree(self._actual, node)  # G never holds a self-loop

    def actual_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterator over the neighbours of ``node`` in ``G`` (O(1), no graph view).

        Like :meth:`g_prime_neighbors`, do not hold it across operations.
        """
        if node not in self._alive:
            raise UnknownNodeError(node, "actual_neighbors")
        return self._actual.neighbors(node)

    def virtual_graph(self) -> nx.Graph:
        """Return the virtual graph: surviving real edges plus the RTs.

        Nodes are labelled ``("real", processor)`` for surviving processors,
        ``("leaf", port)`` for RT leaves and ``("helper", port)`` for helper
        nodes.  Every node carries a ``processor`` attribute giving the real
        processor that owns it; the healed graph is exactly the quotient of
        this graph under that attribute.
        """
        virtual = nx.Graph()
        for node in self._alive:
            virtual.add_node(("real", node), processor=node)
        for u, v in self._g_prime.edges:
            if u in self._alive and v in self._alive:
                virtual.add_edge(("real", u), ("real", v))
        for rt in self._rts.values():
            for parent, child in rt.virtual_edges():
                virtual.add_edge(self._virtual_label(parent), self._virtual_label(child))
            if rt.size == 1:
                only_leaf = next(iter(rt.leaves.values()))
                virtual.add_node(self._virtual_label(only_leaf), processor=only_leaf.processor)
        for label in virtual.nodes:
            kind, payload = label
            if kind == "real":
                virtual.nodes[label]["processor"] = payload
            else:
                virtual.nodes[label]["processor"] = payload.processor
        return virtual

    @staticmethod
    def _virtual_label(node: RTNode) -> Tuple[str, Port]:
        if isinstance(node, RTLeaf):
            return ("leaf", node.port)
        return ("helper", node.simulated_by)

    def _rebuild_actual(self) -> nx.Graph:
        """Build the healed graph ``G`` from scratch (the seed implementation).

        The engine maintains ``G`` incrementally (an edge per sourced pair,
        plus ``_extra_sources`` for the pairs with more than one source);
        this from-scratch builder is kept as the ground truth for
        cross-checking — :meth:`check_invariants` asserts the
        incrementally-maintained graph matches it, and the equivalence tests
        exercise that after every event of randomized churn runs.  Its walk
        visits every source once: each surviving real edge, then each RT
        virtual edge between two processors.
        """
        actual = nx.Graph()
        actual.add_nodes_from(self._alive)
        for u, v in self._g_prime.edges:
            if u in self._alive and v in self._alive:
                actual.add_edge(u, v)
        for rt in self._rts.values():
            for parent, child in rt.virtual_edges():
                p, c = parent.processor, child.processor
                if p != c:
                    actual.add_edge(p, c)
        return actual

    # -- incremental healed-graph deltas ---------------------------------------------
    def _edge_source_added(self, u: NodeId, v: NodeId) -> None:
        """Record one more source (real edge or RT virtual edge) for healed edge (u, v).

        Both endpoints are alive, so both are nodes of ``G``.
        """
        if u == v:
            return
        if not add_edge(self._actual, u, v):
            extra = self._extra_sources
            extra[(u, v)] = extra[(v, u)] = extra.get((u, v), 0) + 1
            return
        self._num_edges += 1
        self._degree_touch_log.append(u)
        self._degree_touch_log.append(v)

    def _edge_source_removed(self, u: NodeId, v: NodeId) -> None:
        """Drop one source of healed edge (u, v); the edge disappears at zero sources."""
        if u == v:
            return
        extra_sources = self._extra_sources
        extra = extra_sources.get((u, v))
        if extra is not None:
            if extra == 1:
                del extra_sources[(u, v)], extra_sources[(v, u)]
            else:
                extra_sources[(u, v)] = extra_sources[(v, u)] = extra - 1
        elif remove_edge(self._actual, u, v):
            self._num_edges -= 1
            self._degree_touch_log.append(u)
            self._degree_touch_log.append(v)

    def edge_multiplicity(self, u: NodeId, v: NodeId) -> int:
        """Number of sources of healed edge ``(u, v)``, 0 when it is absent.

        One per surviving real edge and one per RT virtual edge projecting
        onto it: the count the distributed network keeps per link as its
        source keys (``Network.link_source_count``).
        """
        if u == v or not self._actual.has_edge(u, v):
            return 0
        return 1 + self._extra_sources.get((u, v), 0)

    @property
    def degree_touch_log(self) -> Journal[NodeId]:
        """Append-only journal of nodes whose healed degree may have changed.

        Entries are appended whenever an edge of the incrementally-maintained
        healed graph ``G`` appears or disappears (and when a node is inserted,
        so isolated newcomers are observable too).  Consumers must treat the
        log as read-only, track their own absolute cursor, and *register* it
        (:meth:`repro.core.journal.Journal.register_cursor`) so that
        :meth:`compact_journals` retains the suffix they still need.
        """
        return self._degree_touch_log

    def compact_journals(self) -> Dict[str, int]:
        """Truncate the journal prefix every registered consumer has drained.

        The degree-touch journal is append-only per engine; without
        compaction a multi-million-step session retains every entry forever.
        Consumers that registered a cursor pin their undrained suffix;
        history nobody registered for is dropped.  Returns the number of
        entries dropped per journal.  Called by
        :class:`repro.engine.AttackSession` on its measurement cadence, and
        safe to call at any time.
        """
        return {"degree_touch": self._degree_touch_log.compact()}

    # ------------------------------------------------------------------ #
    # adversarial insertion
    # ------------------------------------------------------------------ #
    def insert(self, node: NodeId, attach_to: Sequence[NodeId] = ()) -> None:
        """Insert a new node with edges to the given surviving nodes.

        This is the adversary's insertion move: the new node may connect to
        any subset of currently alive nodes (Figure 1).  Insertions require
        no healing work; the new edges join both ``G'`` and ``G``.
        """
        if node in self._g_prime:
            if node in self._deleted:
                raise DeletedNodeError(node, "node identifiers cannot be reused")
            raise DuplicateNodeError(node)
        neighbors = list(dict.fromkeys(attach_to))
        for neighbor in neighbors:
            if neighbor == node:
                raise InvalidEdgeError(f"cannot attach {node!r} to itself")
            if neighbor not in self._alive:
                raise UnknownNodeError(neighbor, "insertion must attach to alive nodes")
        add_node(self._g_prime, node)
        self._alive.add(node)
        add_node(self._actual, node)
        self._degree_touch_log.append(node)
        for neighbor in neighbors:
            add_edge(self._g_prime, node, neighbor)
            self._edge_source_added(node, neighbor)
        self._step += 1
        self.last_event = HealingEvent(
            step=self._step, kind="insert", node=node, attached_to=tuple(neighbors)
        )
        self._maybe_check()

    # ------------------------------------------------------------------ #
    # adversarial deletion + self-healing
    # ------------------------------------------------------------------ #
    def delete(self, node: NodeId) -> RepairReport:
        """Delete ``node`` (adversarial move) and run the self-healing repair.

        Returns a :class:`RepairReport` describing the repair work, whose
        fields feed the cost experiments.  Raises if the node is unknown or
        already deleted.
        """
        if node not in self._g_prime:
            raise UnknownNodeError(node, "delete")
        if node not in self._alive:
            raise DeletedNodeError(node, "delete")

        degree_g_prime = self._g_prime.degree[node]
        degree_actual = self._actual.degree[node] if node in self._actual else 0
        edges_before = self._num_edges

        # 1. The processor dies: it disappears from the alive set, all its
        #    ports disappear, and every helper node it simulates disappears.
        # 2. Neighbours that were directly connected (both endpoints alive
        #    until now) contribute a fresh trivial leaf each.
        # One walk of the G' neighbours does both: it drops the real edges,
        # takes the dead ports out of both registries (which locates the
        # affected RTs and the dead RT nodes inside them: O(deg) lookups, no
        # table or tree scans) and makes the trivial leaves.  The registries
        # key by Port, which equals and hashes like the plain pair, so only
        # a new leaf builds a Port.
        alive = self._alive
        alive.discard(node)
        self._deleted.add(node)
        rt_of_leaf, rt_of_helper = self._rt_of_leaf, self._rt_of_helper
        affected_rts: Dict[int, ReconstructionTree] = {}
        dead_rt_nodes: Dict[int, List[RTNode]] = {}
        complete_trees: List[RTNode] = []
        new_trivial_leaves: List[RTLeaf] = []
        for neighbor in self._g_prime.neighbors(node):
            if neighbor in alive:
                self._edge_source_removed(node, neighbor)
                if (neighbor, node) not in rt_of_leaf:
                    leaf = RTLeaf(Port(neighbor, node))
                    complete_trees.append(leaf)
                    new_trivial_leaves.append(leaf)
            own = (node, neighbor)
            rt = rt_of_leaf.pop(own, None)
            if rt is not None:
                affected_rts[rt.rt_id] = rt
                dead_rt_nodes.setdefault(rt.rt_id, []).append(rt.leaves[own])
            rt = rt_of_helper.pop(own, None)
            if rt is not None:
                affected_rts[rt.rt_id] = rt
                dead_rt_nodes.setdefault(rt.rt_id, []).append(rt.helpers[own])

        # 3. Every affected RT is dismantled into its surviving complete
        #    pieces; helpers outside those pieces are released.  Both the
        #    dismantling and the healed-graph deltas touch only the *broken
        #    glue* (the paths from dead RT nodes to their roots plus the
        #    strip spines): edges and subtrees internal to surviving pieces
        #    are carried into the merged RT untouched.
        helpers_released = 0
        merged_rts = len(affected_rts) + len(new_trivial_leaves)
        removed_virtual_edges: List[Tuple[NodeId, NodeId]] = []
        released_by_rt: Dict[int, List[Port]] = {}
        for rt in affected_rts.values():
            pieces, released_ports = extract_surviving_complete_trees(
                rt,
                node,
                removed_edges=removed_virtual_edges,
                dead_nodes=dead_rt_nodes[rt.rt_id],
            )
            complete_trees.extend(pieces)
            helpers_released += len(released_ports)
            released_by_rt[rt.rt_id] = released_ports
        for p, c in removed_virtual_edges:
            self._edge_source_removed(p, c)

        # Registry cleanup (the dead processor's ports left both registries
        # in the walk above): every released helper port becomes free again
        # (it may be picked to simulate one of the merge's new helpers).
        for released_ports in released_by_rt.values():
            for port in released_ports:
                rt_of_helper.pop(port, None)
        # By now every healed edge incident to the dead processor has lost
        # all its sources (real edges above, RT projections with the broken
        # glue), so only the bare node remains.
        self._actual.remove_node(node)

        report = RepairReport(
            deleted_node=node,
            degree_in_g_prime=degree_g_prime,
            degree_in_actual=degree_actual,
            merged_rts=merged_rts,
            merged_complete_trees=len(complete_trees),
            new_rt_size=0,
            helpers_created=0,
            helpers_released=helpers_released,
            edges_added=0,
            edges_removed=0,
        )

        # 4. Merge everything into one new RT (ComputeHaft with the
        #    representative mechanism).  The largest affected RT keeps its
        #    identity: its surviving tables and registry entries stay put and
        #    the smaller RTs are folded into it (smaller-into-larger), so the
        #    bookkeeping cost of a repair is proportional to the smaller
        #    trees, the broken glue and the dead node's degree — never to the
        #    bulk of the largest tree.
        base: Optional[ReconstructionTree] = None
        for rt in affected_rts.values():
            if base is None or len(rt.leaves) + len(rt.helpers) > len(base.leaves) + len(
                base.helpers
            ):
                base = rt
        if complete_trees:
            # The registry itself is the safety net's busy set: compute_haft
            # only tests membership, and the new helpers are registered below.
            new_root, new_helpers = compute_haft(complete_trees, busy_ports=self._rt_of_helper)
            if base is None:
                base = ReconstructionTree(root=new_root, leaves={}, helpers={})
                self._rts[base.rt_id] = base
            else:
                # Scrub the base tables of everything the repair destroyed.
                for dead in dead_rt_nodes[base.rt_id]:
                    if isinstance(dead, RTLeaf):
                        base.leaves.pop(dead.port, None)
                    else:
                        base.helpers.pop(dead.simulated_by, None)
                for port in released_by_rt[base.rt_id]:
                    base.helpers.pop(port, None)
                base.root = new_root
            # Fold the smaller RTs' survivors into the base tables and
            # re-point their registry entries.
            for rt in affected_rts.values():
                if rt is base:
                    continue
                self._rts.pop(rt.rt_id, None)
                released_set = set(released_by_rt[rt.rt_id])
                for port, leaf in rt.leaves.items():
                    if port.processor != node:
                        base.leaves[port] = leaf
                        self._rt_of_leaf[port] = base
                for port, helper in rt.helpers.items():
                    if port.processor != node and port not in released_set:
                        base.helpers[port] = helper
                        self._rt_of_helper[port] = base
            for leaf in new_trivial_leaves:
                base.leaves[leaf.port] = leaf
                self._rt_of_leaf[leaf.port] = base
            for helper in new_helpers:
                base.helpers[helper.simulated_by] = helper
                self._rt_of_helper[helper.simulated_by] = base
            # Every edge of the merged RT is either internal to a surviving
            # piece (its healed-edge source was never dropped) or one of the
            # two child edges of a freshly created glue helper.
            for helper in new_helpers:
                for child in (helper.left, helper.right):
                    if child is not None:
                        self._edge_source_added(helper.processor, child.processor)
            report.new_rt_size = base.size
            report.helpers_created = len(new_helpers)
        elif base is not None:
            # Nothing survived any affected RT: they dissolve entirely (all
            # their ports were the dead processor's, so the registries are
            # already clean).
            for rt in affected_rts.values():
                self._rts.pop(rt.rt_id, None)

        edges_after = self._num_edges
        # Edges lost purely because the node vanished:
        lost_with_node = degree_actual
        delta = edges_after - (edges_before - lost_with_node)
        report.edges_added = max(delta, 0)
        report.edges_removed = max(-delta, 0)

        self._step += 1
        self.last_event = HealingEvent(step=self._step, kind="delete", node=node, report=report)
        self._maybe_check()
        return report

    # ------------------------------------------------------------------ #
    # invariants (Lemma 3, Theorem 1 mechanics)
    # ------------------------------------------------------------------ #
    def _maybe_check(self) -> None:
        if self._check_invariants and self.nodes_ever <= self._invariant_check_limit:
            self.check_invariants()

    def check_invariants(self) -> None:
        """Verify every structural invariant of the data structure.

        Raises :class:`InvariantViolationError` on failure.  This is the
        machinery behind experiment E6 (Lemma 3) and is also exercised by
        the property-based tests.
        """
        actual = self._actual

        # -- incremental G matches the from-scratch rebuild ----------------------------
        rebuilt = self._rebuild_actual()
        if set(actual.nodes) != set(rebuilt.nodes):
            raise InvariantViolationError(
                "incrementally-maintained G has a different node set than the rebuild"
            )
        if {frozenset(e) for e in actual.edges} != {frozenset(e) for e in rebuilt.edges}:
            raise InvariantViolationError(
                "incrementally-maintained G has a different edge set than the rebuild"
            )

        # -- alive/deleted bookkeeping ------------------------------------------------
        if self._alive & self._deleted:
            raise InvariantViolationError("a node is both alive and deleted")
        if set(self._g_prime.nodes) != self._alive | self._deleted:
            raise InvariantViolationError("G' nodes do not match alive + deleted sets")

        # -- every RT is structurally valid --------------------------------------------
        for rt in self._rts.values():
            rt.validate()

        # -- port/leaf bijection --------------------------------------------------------
        expected_leaf_ports: Set[Port] = set()
        for u, v in self._g_prime.edges:
            if u in self._alive and v in self._deleted:
                expected_leaf_ports.add(Port(u, v))
            if v in self._alive and u in self._deleted:
                expected_leaf_ports.add(Port(v, u))
        actual_leaf_ports = set(self._rt_of_leaf.keys())
        if expected_leaf_ports != actual_leaf_ports:
            missing = expected_leaf_ports - actual_leaf_ports
            extra = actual_leaf_ports - expected_leaf_ports
            raise InvariantViolationError(
                f"leaf ports out of sync (missing={missing}, unexpected={extra})"
            )
        for port, rt in self._rt_of_leaf.items():
            if rt.rt_id not in self._rts or port not in rt.leaves:
                raise InvariantViolationError(f"stale leaf registration for {port}")

        # -- Lemma 3: at most one helper per port, in the same RT as the leaf ----------
        for port, rt in self._rt_of_helper.items():
            if rt.rt_id not in self._rts or port not in rt.helpers:
                raise InvariantViolationError(f"stale helper registration for {port}")
            if port not in rt.leaves:
                raise InvariantViolationError(
                    f"helper for {port} lives in an RT where the port has no leaf"
                )
            if port.processor not in self._alive or port.neighbor not in self._deleted:
                raise InvariantViolationError(
                    f"helper for {port} exists although the edge endpoints do not warrant it"
                )

        # -- hard degree bound (1 leaf edge + 3 helper edges per G' edge) --------------
        for node in self._alive:
            d_prime = self._g_prime.degree[node]
            d_actual = actual.degree[node] if node in actual else 0
            if d_prime == 0:
                if d_actual != 0:
                    raise InvariantViolationError(
                        f"isolated node {node!r} has healed degree {d_actual}"
                    )
                continue
            if d_actual > 4 * d_prime:
                raise InvariantViolationError(
                    f"degree of {node!r} is {d_actual} > 4 x {d_prime} (G' degree)"
                )

        # -- connectivity preservation ---------------------------------------------------
        self._check_connectivity(actual)

    def _check_connectivity(self, actual: nx.Graph) -> None:
        """The healed graph must keep alive nodes connected whenever ``G'`` does."""
        g_prime_alive_reachability = nx.Graph()
        g_prime_alive_reachability.add_nodes_from(self._g_prime.nodes)
        g_prime_alive_reachability.add_edges_from(self._g_prime.edges)
        if not self._alive:
            return
        for component in nx.connected_components(g_prime_alive_reachability):
            alive_in_component = [n for n in component if n in self._alive]
            if len(alive_in_component) <= 1:
                continue
            root = alive_in_component[0]
            reachable = nx.node_connected_component(actual, root)
            for other in alive_in_component[1:]:
                if other not in reachable:
                    raise InvariantViolationError(
                        f"alive nodes {root!r} and {other!r} are connected in G' "
                        "but disconnected in the healed graph"
                    )

    # ------------------------------------------------------------------ #
    # convenience metrics (thin wrappers; see repro.analysis for the full kit)
    # ------------------------------------------------------------------ #
    def degree_increase_factor(self, node: Optional[NodeId] = None) -> float:
        """Maximum ratio ``deg(v, G) / deg(v, G')`` over alive nodes (or one node).

        Nodes with ``G'`` degree zero are skipped (the ratio is undefined and
        their healed degree is necessarily zero as well).
        """
        actual = self._actual
        nodes = [node] if node is not None else list(self._alive)
        worst = 0.0
        for v in nodes:
            d_prime = self._g_prime.degree[v] if v in self._g_prime else 0
            if d_prime == 0:
                continue
            d_actual = actual.degree[v] if v in actual else 0
            worst = max(worst, d_actual / d_prime)
        return worst

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ForgivingGraph(alive={self.num_alive}, ever={self.nodes_ever}, "
            f"rts={len(self._rts)}, step={self._step})"
        )
