"""Direct access to a networkx graph's node and adjacency maps.

networkx's ``add_nodes_from``, ``add_edges_from``, ``add_edge`` and
``remove_edge`` pay per call for generality nothing here uses (attribute
updates, 3-tuples, node creation, a clear of the backend-conversion cache,
which no graph here ever fills), several microseconds per edge on a bulk
load.  This module is the one place that writes a graph's node and
adjacency maps directly, in the layout those networkx calls would leave:
:func:`fill_graph` loads an edge sequence (the engine's ``G'`` and ``G``),
:func:`fill_graph_from_adjacency` a symmetric adjacency map (the
processors' graph, ``DistributedForgivingGraph.network_graph``),
:func:`add_node` adds one node and :func:`add_edge` / :func:`remove_edge`
change one edge of a live graph (the engine's incremental ``G`` and its
inserts into ``G'``), and :func:`loopless_degree` reads a node's degree
there.

No node or edge of the engine's graphs carries attributes, so every node
those writers make holds the one shared read-only empty mapping
:data:`NODE_DATA`, and every edge :data:`EDGE_DATA`, in place of an empty
dict of its own: a graph of ``n`` nodes and ``m`` edges holds no per-node
or per-edge attribute dict, and writing into a node's or an edge's data
through the engine's views raises.  Copies (``graph.copy()``) get a fresh
dict per node and per edge, as does the graph
:func:`fill_graph_from_adjacency` fills, which its caller owns.
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
    "edge_pairs",
    "fill_graph",
    "fill_graph_from_adjacency",
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


def edge_pairs(endpoints: List[NodeId]) -> Iterator[Tuple[NodeId, NodeId]]:
    """The edges of a :func:`fill_graph` endpoint list, ``(u, v)`` in order."""
    ends = iter(endpoints)
    return zip(ends, ends)


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
