"""Loading ``G_0`` in one pass per layer writes what the per-edge path wrote.

The engine and the network each load the initial graph in one pass, and
one module (:mod:`repro.core.graph_fill`) fills every fresh networkx
graph: the engine's ``G'`` (from the input graph's adjacency rows) and
``G`` (a row-for-row copy of ``G'``) and the processors' graph
``network_graph()`` returns.  The per-edge loops they replaced are kept
here as the reference, as is the per-edge ``fill_graph`` load of both
engine graphs that the row load replaced, and every field is compared
with them, orders included: node and adjacency order of both engine graphs, the alive set's
iteration order, the edge count, the extra sources and the degree-touch
journal; the network's processor order, each link row's order, its link
sources as they leave the network, the census and the word size; and every
processor's records in order, each read through ``Processor.record``.

The network keeps ``G_0`` implicit, which the reference does not: a loaded
network holds ``None`` for every record (still the one ``Init`` made) and
one shared ``(REAL_EDGE,)`` tuple for every link, so it builds no record
and no real-edge key.  Reads never build a record that stays, and each
writer builds exactly the records it writes, in record order.

Node and edge data are the one deliberate difference: every node of the
engine's graphs holds the shared read-only ``graph_fill.NODE_DATA`` and
every edge ``graph_fill.EDGE_DATA`` (so writing node or edge data through
the engine's views raises), where networkx gives each node and each edge a
dict of its own, as ``network_graph()`` still does for the graph its
caller owns.
"""

import dataclasses
import importlib.util
import random
import tempfile
from pathlib import Path

import networkx as nx
import pytest

from repro.adversary import MaxDegreeDeletion
from repro.analysis.fastpaths import CSRGraph, NodeIndex
from repro.core.errors import InvalidEdgeError, ProtocolError
from repro.core.forgiving_graph import ForgivingGraph
from repro.core.graph_fill import (
    EDGE_DATA,
    NODE_DATA,
    add_edge,
    add_node,
    edge_pairs,
    fill_graph,
    loopless_degree,
    remove_edge,
)
from repro.core.ports import Port
from repro.distributed import DistributedForgivingGraph, Network, fault_schedule
from repro.distributed.merge import real_source_key
from repro.distributed.messages import (
    DeletionNotice,
    HelperAssignment,
    InsertionNotice,
    ParentUpdate,
)
from repro.distributed.network import REAL_EDGE
from repro.distributed.processor import EdgeRecord
from repro.generators import make_graph
from repro.generators.graphs import GraphSpec
from repro.service import HealerDaemon, ServiceConfig
from repro.service.store import CheckpointStore


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


def _reference_genesis_fill(graph):
    """The per-edge genesis fill the row load replaced: ``G'`` through
    ``fill_graph(graph.nodes, graph.edges)``, then ``G`` edge by edge again;
    returns both graphs and the journal's endpoints."""
    g_prime, actual = nx.Graph(), nx.Graph()
    endpoints = fill_graph(g_prime, graph.nodes, graph.edges)
    fill_graph(actual, g_prime, edge_pairs(endpoints))
    return g_prime, actual, endpoints


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


def _assert_shared_node_data(graph):
    """Every node holds the one shared read-only mapping."""
    assert graph._node
    assert all(data is NODE_DATA for data in graph._node.values())


def _assert_one_dict_per_node(graph):
    """Each node holds an empty dict of its own (a graph its caller owns)."""
    dicts = list(graph._node.values())
    assert len({id(data) for data in dicts}) == len(dicts)
    assert all(type(data) is dict and data == {} for data in dicts)


def _assert_engines_equal(fg, reference):
    for name in ("_g_prime", "_actual"):
        graph = getattr(fg, name)
        assert _layout(graph) == _layout(getattr(reference, name)), name
        _assert_shared_node_data(graph)
        _assert_shared_edge_data(graph)
    assert list(fg._alive) == list(reference._alive)
    assert fg._deleted == reference._deleted == set()
    assert fg._num_edges == reference._num_edges == fg._actual.number_of_edges()
    assert fg._extra_sources == reference._extra_sources == {}
    assert list(fg.degree_touch_log) == list(reference.degree_touch_log)
    assert len(fg.degree_touch_log) == len(reference.degree_touch_log)


def _records(network):
    """Every processor's records in order, each read through ``record``."""
    return [
        (node, [(nbr, dataclasses.astuple(p.record(nbr))) for nbr in p.edges])
        for node, p in network.processors.items()
    ]


def _held(network):
    """The records a network holds built, as ``(owner, neighbor)`` in order."""
    return [
        (node, nbr)
        for node, p in network.processors.items()
        for nbr, record in p.edges.items()
        if record is not None
    ]


def _assert_genesis_implicit(network):
    """No record built and no real-edge key: every record is ``None`` and
    every link holds the one shared ``(REAL_EDGE,)`` tuple."""
    assert _held(network) == []
    tuples = {id(keys): keys for links in network._links.values() for keys in links.values()}
    assert list(tuples.values()) in ([], [(REAL_EDGE,)])


def _assert_networks_equal(network, reference):
    assert list(network.processors) == list(reference.processors)
    for node, processor in network.processors.items():
        assert processor.node_id == node
        assert processor.network is network
        assert processor.repairs == {} and processor.repair_epochs == {}
        assert list(processor.edges) == list(reference.processors[node].edges)
        assert len(processor.edges) == len(reference.processors[node].edges)
    assert _records(network) == _records(reference)
    assert list(network._links) == list(reference._links)
    for node, links in network._links.items():
        assert list(links) == list(reference._links[node]), node
        for other, keys in links.items():
            assert network._links[other][node] is keys
            assert network.link_sources(node, other) == reference.link_sources(node, other)
            assert network.link_source_count(node, other) == 1
            real = real_source_key(node, other)
            assert network.has_link_source(real, node, other)
            assert reference.has_link_source(real, node, other)
    assert network.export_link_sources() == reference.export_link_sources()
    assert network.n_ever == reference.n_ever
    assert list(network._ever_ids) == list(reference._ever_ids)
    assert network._word_bits == reference._word_bits
    assert network.marks is None and reference.marks is None


def _assert_healers_equal(healer, reference):
    _assert_engines_equal(healer.engine, reference.engine)
    _assert_genesis_implicit(healer.network)
    _assert_networks_equal(healer.network, reference.network)
    healer.verify_consistency()
    _assert_genesis_implicit(healer.network)


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


def _string_ids():
    """A power-law graph relabelled onto strings, its edges added in shuffled order."""
    edges = [(f"p{u}", f"p{v}") for u, v in make_graph("power_law", 300, seed=6).edges]
    random.Random(6).shuffle(edges)
    return nx.Graph(edges)


GRAPHS = {
    "power_law-2000": lambda: make_graph("power_law", 2000, seed=11),
    "erdos_renyi-1000": lambda: make_graph("erdos_renyi", 1000, seed=12),
    "isolated-nodes": _with_isolated_nodes,
    "mixed-ids": _mixed_ids,
    "string-ids": _string_ids,
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

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_rows_and_journal_match_the_per_edge_fill(self, name):
        """``G'`` filled from the graph's rows and ``G`` copied from ``G'``
        hold what filling both edge by edge held, row for row, and the
        journal the same endpoints; ``G``'s rows are its own."""
        graph = GRAPHS[name]()
        g_prime, actual, endpoints = _reference_genesis_fill(graph)
        for engine in (
            ForgivingGraph.from_graph(graph),
            DistributedForgivingGraph.from_graph(graph).engine,
        ):
            assert _layout(engine._g_prime) == _layout(g_prime)
            assert _layout(engine._actual) == _layout(actual)
            assert list(engine.degree_touch_log) == endpoints
            rows = engine._actual._adj
            assert not any(rows[node] is row for node, row in engine._g_prime._adj.items())

    @pytest.mark.parametrize("loop", [0, 3, "lone"])
    def test_a_self_loop_in_a_graph_raises(self, loop):
        """Wherever the loop is, on an isolated node too."""
        graph = _with_isolated_nodes()
        graph.add_edge(loop, loop)
        with pytest.raises(InvalidEdgeError):
            ForgivingGraph.from_graph(graph)
        with pytest.raises(InvalidEdgeError):
            DistributedForgivingGraph.from_graph(graph)

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
    """``add_node`` (an insert) and ``add_edge``/``remove_edge`` (the engine's
    incremental ``G``) leave the layout networkx's own calls leave, but for
    the shared node and edge mappings, and ``loopless_degree`` reads its
    degrees."""
    rng = random.Random(3)
    graph, reference = nx.Graph(), nx.Graph()
    nodes = [*range(12), "a", "b", ("t", 1)]
    for node in nodes:
        add_node(graph, node)
    reference.add_nodes_from(nodes)
    with pytest.raises(ValueError):
        add_node(graph, None)
    assert _layout(graph) == _layout(reference)
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
    _assert_shared_node_data(graph)
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


def test_engine_nodes_share_one_read_only_mapping():
    """Beside the edges' ``EDGE_DATA``: after a genesis load, churn with
    inserts and deletions, every node of the engine's ``G'`` and ``G`` holds
    ``NODE_DATA``, so writing node data through the views raises, while
    copies and the processors' graph give each node a dict of its own."""
    healer = _churned_healer()
    engine = healer.engine
    for graph in (engine._g_prime, engine._actual):
        _assert_shared_node_data(graph)
        assert "joined" in graph and ("late", 1) in graph  # inserted nodes too
    assert NODE_DATA == {} and len(NODE_DATA) == 0
    for view in (engine.actual_view(), engine.g_prime_graph_view()):
        for node in (next(iter(view.nodes)), "joined"):
            with pytest.raises(TypeError):
                view.nodes[node]["color"] = "red"
    assert NODE_DATA == {}
    for copy in (engine.actual_graph(), engine.g_prime_view()):
        _assert_one_dict_per_node(copy)
    graph = healer.network_graph()
    _assert_one_dict_per_node(graph)
    node = next(iter(graph.nodes))
    graph.nodes[node]["color"] = "red"
    assert graph.nodes[node] == {"color": "red"} and NODE_DATA == {}


# --------------------------------------------------------------------------- #
# Init's records stay implicit: reads build nothing, writers what they write
# --------------------------------------------------------------------------- #
def _golden_records():
    spec = importlib.util.spec_from_file_location(
        "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py"
    )
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    return regen._records


def test_reads_build_no_record():
    """After a 20-move max-degree attack, every reader of records and link
    sources leaves the records held unchanged: the consistency check and
    its list form, the golden digest's records, the link export and a
    checkpoint of every record (most of them still ``Init``'s)."""
    healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 200, seed=3))
    strategy = MaxDegreeDeletion()
    for _ in range(20):
        healer.delete(strategy.choose_victim(healer))
    network = healer.network
    held = _held(network)
    ends = sum(len(p.edges) for p in network.processors.values())
    assert 0 < len(held) < ends // 2
    records = _records(network)

    healer.verify_consistency()
    assert healer.audit_reference() == []
    _golden_records()(healer)
    network.export_link_sources()
    for u, v in network.iter_links():
        network.link_sources(u, v)
    marks = network.start_marks()
    for processor in network.processors.values():
        for neighbor in processor.edges:
            processor.mark_record(neighbor)
    with tempfile.TemporaryDirectory() as tmp:
        store = CheckpointStore(Path(tmp) / "run.db")
        try:
            store.initialize({}, make_graph("power_law", 200, seed=3))
            store.write_checkpoint(healer, seq=0)
            (rows,) = store._conn.execute("SELECT COUNT(*) FROM records").fetchone()
        finally:
            store.close()
    assert rows == ends and not marks.records
    assert _held(network) == held
    assert _records(network) == records


class TestWritersBuildWhatTheyWrite:
    """Each writer builds exactly the records it writes, in their place in
    record order, and marks only those; a link write marks its link once."""

    @staticmethod
    def _network():
        network = Network()
        network.load_genesis("vxyzw", [("v", "x"), ("v", "y"), ("v", "z"), ("x", "y")])
        return network, network.start_marks(), network.processors["v"]

    def test_the_four_handlers(self):
        network, marks, v = self._network()
        helper = Port("v", "y")
        rt_key = ("rt", helper, Port("x", "v"))
        assign = HelperAssignment(
            sender="w", receiver="v", helper_port=helper, left_port=Port("x", "v"), create=True
        )
        update = ParentUpdate(sender="w", receiver="v", child_port=Port("v", "x"), parent_port=helper)
        writes = [
            (InsertionNotice(sender="x", receiver="v", inserted="x"), [], [], {}),
            (
                HelperAssignment(sender="w", receiver="v", helper_port=helper, create=False),
                [],
                [],
                {},
            ),
            (DeletionNotice(sender="v", receiver="v", deleted="z"), ["z"], [("v", "z")], {}),
            (DeletionNotice(sender="v", receiver="v", deleted="w"), ["z"], [], {}),
            (assign, ["y", "z"], [("v", "y")], {("v", "x"): (REAL_EDGE,)}),
            (update, ["x", "y", "z"], [("v", "x")], {}),
            (
                InsertionNotice(sender="w", receiver="v", inserted="w"),
                ["x", "y", "z", "w"],
                [("v", "w")],
                {},
            ),
        ]
        for message, built, marked, links in writes:
            marks.clear()
            v.receive(message)
            assert [nbr for nbr, record in v.edges.items() if record is not None] == built
            assert list(marks.records) == marked
            assert marks.links == links
        assert list(v.edges) == ["x", "y", "z", "w"]
        assert v.edges["z"].neighbor_alive is False
        assert v.edges["y"].has_helper and v.edges["y"].helper_left == Port("x", "v")
        assert v.edges["x"].rt_parent == helper
        assert v.record("w") == EdgeRecord("w", representative=Port("v", "w"))
        assert _held(network) == [("v", "x"), ("v", "y"), ("v", "z"), ("v", "w")]
        assert network.link_sources("x", "v") == {real_source_key("v", "x"), rt_key}

    def test_the_record_accessor(self):
        network, marks, v = self._network()
        read = v.record("y")
        assert read == EdgeRecord("y", representative=Port("v", "y"))
        assert v.record("y") is not read and v.edges["y"] is None
        assert v.record("w") is None
        written = v.ensure_edge("y")
        assert v.record("y") is written and v.ensure_edge("y") is written
        assert list(marks.records) == []
        assert v.ensure_edge("w") is v.edges["w"]
        assert list(marks.records) == [("v", "w")] and list(v.edges) == ["x", "y", "z", "w"]

    def test_an_insert(self):
        healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=2))
        network = healer.network
        marks = network.start_marks()
        healer.insert("new", attach_to=[3, 7])
        assert _held(network)[-1:] == [("new", 7)]
        assert set(_held(network)) == {(3, "new"), (7, "new"), ("new", 3), ("new", 7)}
        assert list(marks.records) == [("new", 3), (3, "new"), ("new", 7), (7, "new")]
        assert list(network.processors[3].edges)[-1] == "new"
        assert network.link_sources("new", 3) == {real_source_key(3, "new")}
        assert {frozenset(pair) for pair in marks.links} == {
            frozenset(("new", 3)), frozenset(("new", 7))
        }

    def test_load_image_and_the_rejoin_rollback(self, tmp_path):
        """A restore builds exactly the records with rows, in record order,
        and a stale rejoin's rollback builds none: it rewrites only records
        the repair already built."""
        config = ServiceConfig(graph=GraphSpec("power_law", 64), seed=3, checkpoint_every=0)
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        store, healer = daemon.store, daemon.healer
        for victim in sorted(healer.alive_nodes)[:4]:
            daemon.client("c").delete(victim)
        daemon.pump()
        daemon.checkpoint()
        rows = {(owner, nbr) for owner, stored in store.load_records().items() for nbr in stored}
        assert rows and set(_held(healer.network)) == rows
        restored = DistributedForgivingGraph.from_graph(store.genesis_graph()).network
        _assert_genesis_implicit(restored)
        store.load_image(restored, store.latest_checkpoint())
        assert _held(restored) == _held(healer.network)
        assert _records(restored) == _records(healer.network)

        seen = {}
        reconverge = healer.reconverge

        def at_rollback():
            seen["held"] = _held(healer.network)
            seen["marks"] = list(healer.network.marks.records)
            return reconverge()

        delete = healer.delete

        def after_delete(victim):
            report = delete(victim)
            seen["before"] = (_held(healer.network), list(healer.network.marks.records))
            return report

        healer.delete, healer.reconverge = after_delete, at_rollback
        report = daemon.rejoin_stale()
        assert report.stale is not None and report.records_rolled_back
        assert (seen["held"], seen["marks"]) == seen["before"]
        daemon.close()
