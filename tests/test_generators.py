"""Unit tests for the initial-topology generators."""

import networkx as nx
import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.generators import GraphSpec, available_topologies, make_graph
from repro.generators.graphs import (
    _ensure_connected,
    binary_tree_graph,
    erdos_renyi_graph,
    gnp_random_graph,
    grid_graph,
    power_law_graph,
    random_regular_graph,
    star_graph,
)


class TestMakeGraph:
    @pytest.mark.parametrize("topology", sorted(["star", "path", "ring", "grid", "binary_tree", "erdos_renyi", "power_law", "random_regular"]))
    def test_all_topologies_are_connected(self, topology):
        graph = make_graph(topology, 50, seed=3)
        assert nx.is_connected(graph)

    @pytest.mark.parametrize("topology", ["star", "path", "ring", "binary_tree", "power_law"])
    def test_exact_size(self, topology):
        assert make_graph(topology, 37, seed=1).number_of_nodes() == 37

    def test_available_topologies_is_sorted_and_complete(self):
        names = available_topologies()
        assert names == sorted(names)
        assert "power_law" in names and "star" in names

    def test_unknown_topology_raises(self):
        with pytest.raises(ConfigurationError):
            make_graph("moebius", 10)

    def test_integer_labels(self):
        graph = make_graph("grid", 25, seed=0)
        assert all(isinstance(node, int) for node in graph.nodes)

    def test_deterministic_given_seed(self):
        a = make_graph("erdos_renyi", 40, seed=5)
        b = make_graph("erdos_renyi", 40, seed=5)
        assert set(a.edges) == set(b.edges)

    def test_different_seeds_differ(self):
        a = make_graph("erdos_renyi", 60, seed=1)
        b = make_graph("erdos_renyi", 60, seed=2)
        assert set(a.edges) != set(b.edges)

    def test_accepts_numpy_generator(self):
        rng = np.random.default_rng(7)
        graph = make_graph("power_law", 30, seed=rng)
        assert graph.number_of_nodes() == 30


class TestSpecificTopologies:
    def test_star_hub_degree(self):
        graph = star_graph(20)
        assert graph.degree[0] == 19

    def test_binary_tree_shape(self):
        graph = binary_tree_graph(15)
        degrees = sorted(dict(graph.degree()).values(), reverse=True)
        assert degrees[0] <= 3
        assert nx.is_tree(graph)

    def test_grid_is_roughly_square(self):
        graph = grid_graph(36)
        assert graph.number_of_nodes() == 36

    def test_erdos_renyi_average_degree(self):
        graph = erdos_renyi_graph(300, seed=1, avg_degree=8.0)
        avg = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert 5.0 < avg < 11.0

    def test_power_law_has_hubs(self):
        graph = power_law_graph(200, seed=2, attachment=3)
        degrees = sorted(dict(graph.degree()).values(), reverse=True)
        assert degrees[0] > 3 * degrees[len(degrees) // 2]

    def test_random_regular_degree(self):
        graph = random_regular_graph(50, seed=3, degree=4)
        assert all(d == 4 for _, d in graph.degree())

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            star_graph(1)


class TestGraphSpec:
    def test_build(self):
        spec = GraphSpec(topology="ring", n=12)
        graph = spec.build(seed=0)
        assert graph.number_of_nodes() == 12

    def test_build_with_params(self):
        spec = GraphSpec(topology="erdos_renyi", n=80, params={"avg_degree": 10.0})
        graph = spec.build(seed=0)
        avg = 2 * graph.number_of_edges() / graph.number_of_nodes()
        assert avg > 6.0

    def test_label(self):
        assert GraphSpec(topology="star", n=8).label() == "star(n=8)"

    def test_equality(self):
        assert GraphSpec("star", 8) == GraphSpec("star", 8)
        assert GraphSpec("star", 8) != GraphSpec("star", 9)


def _layout(graph):
    """Nodes, edges and every adjacency, each in the graph's own order."""
    return list(graph.nodes), list(graph.edges), [list(graph.adj[node]) for node in graph]


def _assert_one_dict_per_node_and_edge(graph):
    """Each node holds an empty dict of its own, and each edge one shared by
    its two directions, as networkx's own calls leave them."""
    nodes = list(graph._node.values())
    assert len({id(data) for data in nodes}) == len(nodes)
    assert all(type(data) is dict and data == {} for data in nodes)
    edges = {}
    for u, row in graph._adj.items():
        for v, data in row.items():
            assert graph._adj[v][u] is data, (u, v)
            edges[frozenset((u, v))] = data
    assert len({id(data) for data in edges.values()}) == len(edges) == graph.number_of_edges()
    assert all(type(data) is dict and data == {} for data in edges.values())


class TestGnpRandomGraph:
    """The numpy G(n, p) sampler reproduces networkx's, order for order."""

    SEEDS = (0, 1, 3, 7, 99, 12345, 2**31 - 2)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 200])
    def test_matches_networkx(self, n):
        for p in (0, 0.3, 0.5, 1, 6 / (n - 1)):
            for seed in self.SEEDS:
                expected = nx.gnp_random_graph(n, p, seed=seed)
                graph = gnp_random_graph(n, p, seed)
                assert _layout(graph) == _layout(expected), (n, p, seed)
                _assert_one_dict_per_node_and_edge(graph)

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_matches_networkx_at_benchmark_sizes(self, n):
        """Sparse, as ``erdos_renyi_graph`` draws them; the pairs span two
        blocks at n=2000."""
        for seed in (0, 2**31 - 2):
            expected = nx.gnp_random_graph(n, 6 / (n - 1), seed=seed)
            assert _layout(gnp_random_graph(n, 6 / (n - 1), seed)) == _layout(expected), seed

    @pytest.mark.parametrize("seed", range(4))
    def test_erdos_renyi_graph_is_unchanged(self, seed):
        """The topology is the networkx-sampled one, connected the same way."""
        rng = np.random.default_rng(seed)
        expected = nx.gnp_random_graph(300, 6 / 299, seed=int(rng.integers(0, 2**31 - 1)))
        expected = _ensure_connected(expected, rng)
        assert _layout(erdos_renyi_graph(300, seed=seed)) == _layout(expected)


class TestPowerLawGraph:
    """The row-writing Barabási–Albert generator reproduces networkx's,
    draw for draw and order for order."""

    SEEDS = (0, 1, 5, 11, 4101, 2**31 - 2)

    @staticmethod
    def _expected(n, seed, attachment=3):
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        return nx.barabasi_albert_graph(
            n, min(attachment, n - 1), seed=int(rng.integers(0, 2**31 - 1))
        )

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 30, 200, 2000])
    def test_matches_networkx(self, n):
        for seed in self.SEEDS:
            graph = power_law_graph(n, seed)
            assert _layout(graph) == _layout(self._expected(n, seed)), (n, seed)
            _assert_one_dict_per_node_and_edge(graph)

    @pytest.mark.parametrize("attachment", [1, 2, 5])
    def test_matches_networkx_for_other_attachments(self, attachment):
        for n in (3, 6, 150):
            graph = power_law_graph(n, 7, attachment=attachment)
            assert _layout(graph) == _layout(self._expected(n, 7, attachment)), n

    def test_matches_networkx_from_a_numpy_generator(self):
        graph = power_law_graph(500, np.random.default_rng(23))
        assert _layout(graph) == _layout(self._expected(500, np.random.default_rng(23)))
        _assert_one_dict_per_node_and_edge(graph)

    def test_make_graph_builds_it(self):
        assert _layout(make_graph("power_law", 300, seed=9)) == _layout(self._expected(300, 9))

    def test_attachment_below_one_raises(self):
        with pytest.raises(ConfigurationError):
            power_law_graph(10, 0, attachment=0)
