"""Loading ``G_0`` in one pass per layer writes what the per-edge path wrote.

The engine and the network each load the initial graph in one pass, and
one module (:mod:`repro.core.graph_fill`) fills every fresh networkx
graph: the engine's ``G'`` and ``G`` and the processors' graph
``network_graph()`` returns.  The per-edge loops they replaced are kept
here as the reference, and every field is compared with them, orders
included: node and adjacency order of both engine graphs, the alive set's
iteration order, the edge count, the extra sources and the degree-touch
journal; the network's processor order, each link row's order, one key
tuple per link held by both endpoints, the census and the word size; and
every processor's records in order.

Edge data is the one deliberate difference: every edge of the engine's
graphs holds the shared read-only ``graph_fill.EDGE_DATA`` (so writing
edge data through the engine's views raises), where networkx gives each
edge a dict of its own, as ``network_graph()`` still does for the graph
its caller owns.
"""

import dataclasses
import random

import networkx as nx
import pytest

from repro.adversary import MaxDegreeDeletion
from repro.analysis.fastpaths import CSRGraph, NodeIndex
from repro.core.errors import InvalidEdgeError, ProtocolError
from repro.core.forgiving_graph import ForgivingGraph
from repro.core.graph_fill import EDGE_DATA, add_edge, fill_graph, loopless_degree, remove_edge
from repro.distributed import DistributedForgivingGraph, Network, fault_schedule
from repro.distributed.merge import real_source_key
from repro.generators import make_graph


# --------------------------------------------------------------------------- #
# the per-edge reference: the loops the one-pass loads replaced
# --------------------------------------------------------------------------- #
def _reference_add_node(fg, node):
    if node in fg._g_prime:
        return
    fg._g_prime.add_node(node)
    fg._alive.add(node)
    fg._actual.add_node(node)


def _reference_add_edge(fg, u, v):
    if u == v:
        raise InvalidEdgeError(f"self-loop ({u!r}, {v!r}) not allowed")
    if not fg._g_prime.has_edge(u, v):
        fg._edge_source_added(u, v)
    fg._g_prime.add_edge(u, v)


def _reference_engine_from_edges(edges, nodes=()):
    fg = ForgivingGraph()
    for node in nodes:
        _reference_add_node(fg, node)
    for u, v in edges:
        _reference_add_node(fg, u)
        _reference_add_node(fg, v)
        _reference_add_edge(fg, u, v)
    return fg


def _reference_engine_from_graph(graph):
    fg = ForgivingGraph()
    for node in graph.nodes:
        _reference_add_node(fg, node)
    for u, v in graph.edges:
        _reference_add_edge(fg, u, v)
    return fg


def _reference_distributed_from_graph(graph):
    healer = DistributedForgivingGraph()
    engine, network = healer.engine, healer.network
    for node in graph.nodes:
        _reference_add_node(engine, node)
        network.add_processor(node)
    for u, v in graph.edges:
        _reference_add_edge(engine, u, v)
        network.add_link_source(real_source_key(u, v), u, v)
        network.processors[u].ensure_edge(v)
        network.processors[v].ensure_edge(u)
    return healer


def _reference_distributed_from_edges(edges, nodes=()):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return _reference_distributed_from_graph(graph)


# --------------------------------------------------------------------------- #
# field-by-field comparison
# --------------------------------------------------------------------------- #
def _layout(graph):
    """Nodes with their attribute dicts, and each adjacency row, in order."""
    return (
        list(graph._node.items()),
        [(node, list(nbrs.items())) for node, nbrs in graph._adj.items()],
        graph.graph,
    )


def _edge_dicts(graph):
    """Each edge's attribute dict, checking both directions hold the same one."""
    dicts = {}
    for u, nbrs in graph._adj.items():
        for v, data in nbrs.items():
            assert graph._adj[v][u] is data, (u, v)
            dicts[frozenset((u, v))] = data
    return dicts


def _assert_one_dict_per_edge(graph):
    """Each edge holds an empty dict of its own (a graph its caller owns)."""
    dicts = _edge_dicts(graph)
    assert len({id(data) for data in dicts.values()}) == len(dicts)
    assert all(type(data) is dict and data == {} for data in dicts.values())


def _assert_shared_edge_data(graph):
    """Every edge holds the one shared read-only mapping, in both directions."""
    dicts = _edge_dicts(graph)
    assert dicts
    assert all(data is EDGE_DATA for data in dicts.values())


def _assert_engines_equal(fg, reference):
    for name in ("_g_prime", "_actual"):
        graph = getattr(fg, name)
        assert _layout(graph) == _layout(getattr(reference, name)), name
        _assert_shared_edge_data(graph)
    assert list(fg._alive) == list(reference._alive)
    assert fg._deleted == reference._deleted == set()
    assert fg._num_edges == reference._num_edges == fg._actual.number_of_edges()
    assert fg._extra_sources == reference._extra_sources == {}
    assert list(fg.degree_touch_log) == list(reference.degree_touch_log)
    assert len(fg.degree_touch_log) == len(reference.degree_touch_log)


def _records(network):
    return [
        (node, [(nbr, dataclasses.astuple(record)) for nbr, record in p.edges.items()])
        for node, p in network.processors.items()
    ]


def _assert_networks_equal(network, reference):
    assert list(network.processors) == list(reference.processors)
    for node, processor in network.processors.items():
        assert processor.node_id == node
        assert processor.network is network
        assert processor.repairs == {} and processor.repair_epochs == {}
    assert _records(network) == _records(reference)
    assert list(network._links) == list(reference._links)
    for node, links in network._links.items():
        assert list(links.items()) == list(reference._links[node].items()), node
        for other, keys in links.items():
            assert len(keys) == 1
            assert network._links[other][node] is keys
    assert network.n_ever == reference.n_ever
    assert list(network._ever_ids) == list(reference._ever_ids)
    assert network._word_bits == reference._word_bits
    assert network.marks is None and reference.marks is None


def _assert_healers_equal(healer, reference):
    _assert_engines_equal(healer.engine, reference.engine)
    _assert_networks_equal(healer.network, reference.network)
    healer.verify_consistency()


# --------------------------------------------------------------------------- #
# inputs
# --------------------------------------------------------------------------- #
def _with_isolated_nodes():
    graph = nx.Graph()
    graph.add_nodes_from([5, 0, "lone", 9])
    graph.add_edges_from([(0, 1), (2, 1), (1, 7), (0, 7)])
    graph.add_node(3)
    graph.add_edge(3, 2)
    return graph


def _mixed_ids():
    """A random graph relabelled onto ints, strs and tuples, its nodes and
    edges added in shuffled order."""
    base = make_graph("erdos_renyi", 60, seed=4)
    kinds = (lambda i: i, lambda i: f"n{i}", lambda i: (i % 7, f"t{i}"))
    label = {node: kinds[node % 3](node) for node in base.nodes}
    nodes = [label[node] for node in base.nodes]
    edges = [(label[u], label[v]) for u, v in base.edges]
    rng = random.Random(4)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    return graph


GRAPHS = {
    "power_law-2000": lambda: make_graph("power_law", 2000, seed=11),
    "erdos_renyi-1000": lambda: make_graph("erdos_renyi", 1000, seed=12),
    "isolated-nodes": _with_isolated_nodes,
    "mixed-ids": _mixed_ids,
}

#: Repeated edges in both directions, isolated and repeated ``nodes``, an
#: endpoint first seen in an edge, and mixed id types.
DUPLICATE_EDGES = [(1, 2), ("a", 1), (2, 1), (3, (0, "x")), ("a", 1), (1, "a"), (4, 3), (2, 4)]
DUPLICATE_NODES = [9, (0, "x"), 9, "b"]


# --------------------------------------------------------------------------- #
# the loads against the per-edge reference
# --------------------------------------------------------------------------- #
class TestGenesisLoadMatchesThePerEdgePath:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_engine_from_graph(self, name):
        graph = GRAPHS[name]()
        _assert_engines_equal(ForgivingGraph.from_graph(graph), _reference_engine_from_graph(graph))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_distributed_from_graph(self, name):
        graph = GRAPHS[name]()
        _assert_healers_equal(
            DistributedForgivingGraph.from_graph(graph), _reference_distributed_from_graph(graph)
        )

    def test_engine_from_edges_with_duplicate_edges(self):
        fg = ForgivingGraph.from_edges(iter(DUPLICATE_EDGES), iter(DUPLICATE_NODES))
        _assert_engines_equal(fg, _reference_engine_from_edges(DUPLICATE_EDGES, DUPLICATE_NODES))
        assert fg.num_alive == 8 and fg._num_edges == 5

    def test_distributed_from_edges_with_duplicate_edges(self):
        _assert_healers_equal(
            DistributedForgivingGraph.from_edges(DUPLICATE_EDGES, DUPLICATE_NODES),
            _reference_distributed_from_edges(DUPLICATE_EDGES, DUPLICATE_NODES),
        )

    def test_the_loaded_healers_play_the_same_attack(self):
        """Equal state makes an equal run: the same repairs, cost reports
        and final records after a max-degree attack."""
        graph = make_graph("power_law", 120, seed=5)
        healers = [
            DistributedForgivingGraph.from_graph(graph),
            _reference_distributed_from_graph(graph),
        ]
        for healer in healers:
            strategy = MaxDegreeDeletion()
            for _ in range(12):
                healer.delete(strategy.choose_victim(healer))
        loaded, reference = healers
        assert loaded.cost_reports == reference.cost_reports
        assert _records(loaded.network) == _records(reference.network)
        assert _layout(loaded.engine._actual) == _layout(reference.engine._actual)
        assert list(loaded.degree_touch_log) == list(reference.degree_touch_log)

    @pytest.mark.parametrize(
        "build",
        [
            lambda edges: ForgivingGraph.from_graph(nx.Graph(edges)),
            lambda edges: ForgivingGraph.from_edges(edges),
            lambda edges: DistributedForgivingGraph.from_graph(nx.Graph(edges)),
            lambda edges: DistributedForgivingGraph.from_edges(edges),
        ],
        ids=["engine-graph", "engine-edges", "distributed-graph", "distributed-edges"],
    )
    def test_a_self_loop_raises(self, build):
        with pytest.raises(InvalidEdgeError):
            build([(0, 1), (1, 1), (1, 2)])

    def test_loads_refuse_a_graph_or_network_that_is_not_empty(self):
        graph = nx.Graph([(0, 1)])
        with pytest.raises(ValueError):
            fill_graph(graph, [2], [])
        with pytest.raises(ValueError):
            fill_graph(nx.Graph(), [None], [])
        network = Network()
        network.add_processor(0)
        with pytest.raises(ProtocolError):
            network.load_genesis([1], [])


# --------------------------------------------------------------------------- #
# the processors' graph
# --------------------------------------------------------------------------- #
def _churned_healer():
    """A byzantine max-degree attack with quarantines, then inserts, one of
    them an isolated processor."""
    healer = DistributedForgivingGraph.from_graph(
        make_graph("power_law", 48, seed=9), fault_schedule=fault_schedule("byzantine", seed=9)
    )
    strategy = MaxDegreeDeletion()
    for _ in range(18):
        victim = strategy.choose_victim(healer)
        if victim is None or healer.num_alive <= 3:
            break
        healer.delete(victim)
    alive = sorted(node for node in healer.alive_nodes if healer.network.has_processor(node))
    healer.insert("isolated")
    healer.insert("joined", attach_to=alive[:3])
    healer.insert(("late", 1), attach_to=[alive[-1], "joined"])
    return healer


def test_network_graph_matches_networkx_add_from():
    healer = _churned_healer()
    network = healer.network
    assert network.quarantined
    assert network.has_processor("isolated") and not network._links["isolated"]
    graph = healer.network_graph()
    reference = nx.Graph()
    reference.add_nodes_from(network.processors)
    reference.add_edges_from(network.iter_links())
    assert _layout(graph) == _layout(reference)
    assert list(graph.edges) == list(reference.edges)
    _assert_one_dict_per_edge(graph)
    index = NodeIndex()
    index.extend(graph.nodes)
    csr, reference_csr = CSRGraph.from_graph(graph, index), CSRGraph.from_graph(reference, index)
    assert csr.indptr.tolist() == reference_csr.indptr.tolist()
    assert csr.indices.tolist() == reference_csr.indices.tolist()


def test_one_edge_writers_match_networkx():
    """``add_edge``/``remove_edge`` (the engine's incremental ``G``) leave the
    layout networkx's own calls leave, but for the shared edge mapping, and
    ``loopless_degree`` reads its degrees."""
    rng = random.Random(3)
    graph, reference = nx.Graph(), nx.Graph()
    nodes = [*range(12), "a", "b", ("t", 1)]
    graph.add_nodes_from(nodes)
    reference.add_nodes_from(nodes)
    for _ in range(400):
        u, v = rng.sample(nodes, 2)
        if rng.random() < 0.6:
            assert add_edge(graph, u, v) == (not reference.has_edge(u, v))
            reference.add_edge(u, v)
        else:
            assert remove_edge(graph, u, v) == reference.has_edge(u, v)
            if reference.has_edge(u, v):
                reference.remove_edge(u, v)
        assert _layout(graph) == _layout(reference)
    assert not remove_edge(graph, "absent", 0)
    _assert_shared_edge_data(graph)
    assert [loopless_degree(graph, node) for node in nodes] == [
        reference.degree[node] for node in nodes
    ]


def test_engine_edges_share_one_read_only_mapping():
    """After a genesis load, churn with inserts and deletions, every edge of
    the engine's ``G'`` and ``G`` still holds ``EDGE_DATA``: writing edge
    data through the views raises, copies get dicts of their own, and the
    processors' graph gives each edge its own writable dict."""
    healer = _churned_healer()
    engine = healer.engine
    for graph in (engine._g_prime, engine._actual):
        _assert_shared_edge_data(graph)
    assert EDGE_DATA == {} and len(EDGE_DATA) == 0
    for view in (engine.actual_view(), engine.g_prime_graph_view()):
        u, v = next(iter(view.edges))
        with pytest.raises(TypeError):
            view[u][v]["weight"] = 1.0
        with pytest.raises(TypeError):
            view.edges[u, v]["weight"] = 1.0
    assert EDGE_DATA == {}
    for copy in (engine.actual_graph(), engine.g_prime_view()):
        _assert_one_dict_per_edge(copy)
    graph = healer.network_graph()
    _assert_one_dict_per_edge(graph)
    u, v = next(iter(graph.edges))
    graph[u][v]["weight"] = 2.0
    assert graph[v][u] == {"weight": 2.0} and EDGE_DATA == {}
