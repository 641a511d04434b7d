"""Direct access to a networkx graph's node and adjacency maps.

networkx's ``add_nodes_from``, ``add_edges_from``, ``add_edge`` and
``remove_edge`` pay per call for generality nothing here uses (attribute
updates, 3-tuples, node creation, a clear of the backend-conversion cache,
which no graph here ever fills), several microseconds per edge on a bulk
load.  This module is the one place that writes a graph's node and
adjacency maps directly, in the layout those networkx calls would leave.

For the engine's ``G'`` and ``G``: :func:`fill_graph` loads an edge
sequence and :func:`fill_graph_from_rows` another graph's adjacency rows
(``G'`` at genesis), :func:`copy_rows` copies one graph's rows into
another (``G``, which equals ``G'`` at genesis), :func:`add_node` adds one
node and :func:`add_edge` / :func:`remove_edge` change one edge of a live
graph (the engine's incremental ``G`` and its inserts into ``G'``), and
:func:`loopless_degree` reads a node's degree there.

For graphs their caller owns: :func:`fill_owned_graph` loads nodes and an
edge sequence (the generated topologies, the stored genesis graph) and
:func:`fill_graph_from_adjacency` a symmetric adjacency map (the
processors' graph, ``DistributedForgivingGraph.network_graph``).

No node or edge of the engine's graphs carries attributes, so every node
those writers make holds the one shared read-only empty mapping
:data:`NODE_DATA`, and every edge :data:`EDGE_DATA`, in place of an empty
dict of its own: a graph of ``n`` nodes and ``m`` edges holds no per-node
or per-edge attribute dict, and writing into a node's or an edge's data
through the engine's views raises.  Copies (``graph.copy()``) get a fresh
dict per node and per edge, as do the graphs :func:`fill_owned_graph` and
:func:`fill_graph_from_adjacency` fill, which their callers own.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Iterator, List, Mapping, Tuple

import networkx as nx

from .errors import InvalidEdgeError
from .ports import NodeId

__all__ = [
    "EDGE_DATA",
    "NODE_DATA",
    "add_edge",
    "add_node",
    "copy_rows",
    "edge_pairs",
    "fill_graph",
    "fill_graph_from_adjacency",
    "fill_graph_from_rows",
    "fill_owned_graph",
    "loopless_degree",
    "remove_edge",
]

#: The attribute mapping of every edge :func:`fill_graph` and
#: :func:`add_edge` write: empty, read-only and shared by all of them.
EDGE_DATA: Mapping = MappingProxyType({})
#: The attribute mapping of every node :func:`fill_graph` and
#: :func:`add_node` write, like :data:`EDGE_DATA` for edges.
NODE_DATA: Mapping = MappingProxyType({})


def fill_graph(
    graph: nx.Graph,
    nodes: Iterable[NodeId],
    edges: Iterable[Tuple[NodeId, NodeId]],
) -> List[NodeId]:
    """Load ``nodes``, then ``edges``, into the empty ``graph``; return what was added.

    The graph ends as ``graph.add_nodes_from(nodes)`` followed by
    ``graph.add_edges_from(edges)`` leaves a fresh :class:`networkx.Graph`:
    nodes in first-seen order (an edge's endpoints join, ``u`` then ``v``,
    as it is read) and each node's neighbours in the order its edges were
    read; every node holds :data:`NODE_DATA` and every edge
    :data:`EDGE_DATA` in both directions, where networkx gives each node
    and each edge an empty dict of its own.  An edge read again,
    in either direction, is skipped.  The returned list holds the endpoints
    of the edges added, ``u`` then ``v`` per edge, in order
    (:func:`edge_pairs` reads it back as edges): flat, so no tuple per edge
    is held while a load runs.

    A self-loop raises :class:`InvalidEdgeError` (neither ``G_0`` nor the
    processors' links may hold one) and a ``None`` node ``ValueError``,
    as networkx does.
    """
    adj = graph._adj
    if adj:
        raise ValueError("fill_graph loads an empty graph")
    for node in nodes:
        if node not in adj:
            add_node(graph, node)
    endpoints: List[NodeId] = []
    for u, v in edges:
        if u == v:
            raise InvalidEdgeError(f"self-loop ({u!r}, {v!r}) not allowed")
        if u not in adj:
            add_node(graph, u)
        if v not in adj:
            add_node(graph, v)
        u_nbrs = adj[u]
        if v not in u_nbrs:
            u_nbrs[v] = adj[v][u] = EDGE_DATA
            endpoints += (u, v)
    return endpoints


def fill_graph_from_rows(graph: nx.Graph, source: nx.Graph) -> List[NodeId]:
    """Load ``source`` into the empty ``graph`` from its adjacency rows.

    Leaves, and returns, what ``fill_graph(graph, source.nodes,
    source.edges)`` would: ``source``'s nodes in order, then each edge in
    the order ``source.edges`` yields it, from the endpoint whose row comes
    first (an entry already loaded from its other end is skipped, which is
    how ``source.edges`` leaves it out), so every row lists the neighbours
    before its node first, in node order, then the rest in ``source``'s row
    order.  A self-loop raises :class:`InvalidEdgeError`.
    """
    adj = graph._adj
    if adj:
        raise ValueError("fill_graph_from_rows loads an empty graph")
    rows = source._adj
    for node in rows:
        adj[node] = {}
    graph._node.update(dict.fromkeys(rows, NODE_DATA))
    endpoints: List[NodeId] = []
    for u, nbrs in rows.items():
        if u in nbrs:
            raise InvalidEdgeError(f"self-loop ({u!r}, {u!r}) not allowed")
        row = adj[u]
        for v in nbrs:
            if v not in row:
                row[v] = adj[v][u] = EDGE_DATA
                endpoints += (u, v)
    return endpoints


def copy_rows(graph: nx.Graph, source: nx.Graph) -> None:
    """Make the empty ``graph`` a row-for-row copy of ``source``.

    Nodes and every row in ``source``'s order, each node and edge holding
    the mapping it holds in ``source`` (:data:`NODE_DATA` and
    :data:`EDGE_DATA` for the engine's graphs), one new dict per row.
    """
    adj = graph._adj
    if adj:
        raise ValueError("copy_rows fills an empty graph")
    adj.update({node: row.copy() for node, row in source._adj.items()})
    graph._node.update(source._node)


def edge_pairs(endpoints: List[NodeId]) -> Iterator[Tuple[NodeId, NodeId]]:
    """The edges of a :func:`fill_graph` endpoint list, ``(u, v)`` in order."""
    ends = iter(endpoints)
    return zip(ends, ends)


def fill_owned_graph(
    graph: nx.Graph,
    nodes: Iterable[NodeId],
    edges: Iterable[Tuple[NodeId, NodeId]],
) -> None:
    """Load ``nodes``, then ``edges`` between them, into the empty ``graph``.

    The graph ends as ``graph.add_nodes_from(nodes)`` followed by
    ``graph.add_edges_from(edges)`` leaves it: nodes in order, each node's
    neighbours in the order its edges were read, one attribute dict per
    node and one per edge, shared by its two directions (the caller owns
    the graph and may write node and edge data).  An edge read again keeps
    its place and its dict.  Every endpoint must be one of ``nodes``.
    """
    node_attrs, adj = graph._node, graph._adj
    if adj:
        raise ValueError("fill_owned_graph loads an empty graph")
    for node in nodes:
        if node is None:
            raise ValueError("None cannot be a node")
        adj[node] = {}
        node_attrs[node] = {}
    for u, v in edges:
        u_nbrs = adj[u]
        if v not in u_nbrs:
            u_nbrs[v] = adj[v][u] = {}


def fill_graph_from_adjacency(
    graph: nx.Graph, adjacency: Mapping[NodeId, Iterable[NodeId]]
) -> None:
    """Load the symmetric ``adjacency`` map into the empty ``graph``.

    The graph ends as ``add_nodes_from(adjacency)`` followed by
    ``add_edges_from`` over each edge once, as ``(u, v)`` from the endpoint
    ``u`` that comes first in the map's order (the edges
    ``Network.iter_links`` and networkx's ``graph.edges`` yield), leaves
    it: nodes in the map's order, one attribute dict per node, and one per
    edge, shared by its two directions (the caller owns the graph and may
    write node and edge data).  A node's row lists the neighbours before it
    in the map's order first, then the rest in the order the map lists
    them.
    """
    node_attrs, adj = graph._node, graph._adj
    if adj:
        raise ValueError("fill_graph_from_adjacency loads an empty graph")
    for node in adjacency:
        adj[node] = {}
        node_attrs[node] = {}
    for u, nbrs in adjacency.items():
        row = adj[u]
        for v in nbrs:
            # A neighbour earlier in the map already linked this edge.
            if v not in row:
                row[v] = adj[v][u] = {}


def add_node(graph: nx.Graph, node: NodeId) -> None:
    """Add ``node``, which ``graph`` does not hold, with no neighbours.

    Leaves what ``graph.add_node(node)`` would, except that the node holds
    :data:`NODE_DATA`; a ``None`` node raises ``ValueError``, as networkx
    does.
    """
    if node is None:
        raise ValueError("None cannot be a node")
    graph._adj[node] = {}
    graph._node[node] = NODE_DATA


def add_edge(graph: nx.Graph, u: NodeId, v: NodeId) -> bool:
    """Add the edge ``(u, v)`` between two distinct nodes of ``graph`` unless it is there.

    Leaves what ``graph.add_edge(u, v)`` would, ``v`` last in ``u``'s row
    and ``u`` last in ``v``'s, except that the edge holds :data:`EDGE_DATA`
    in both directions.  Both nodes must be in the graph.  Returns True when
    the edge was added.
    """
    adj = graph._adj
    u_nbrs = adj[u]
    if v in u_nbrs:
        return False
    u_nbrs[v] = adj[v][u] = EDGE_DATA
    return True


def remove_edge(graph: nx.Graph, u: NodeId, v: NodeId) -> bool:
    """Remove the edge ``(u, v)`` (``u != v``) from ``graph`` if it is there.

    Leaves what ``graph.remove_edge(u, v)`` would.  Returns True when the
    edge was removed.
    """
    adj = graph._adj
    u_nbrs = adj.get(u)
    if u_nbrs is None or v not in u_nbrs:
        return False
    del u_nbrs[v], adj[v][u]
    return True


def loopless_degree(graph: nx.Graph, node: NodeId) -> int:
    """``graph.degree[node]`` for a graph without self-loops: the row's length."""
    return len(graph._adj[node])
