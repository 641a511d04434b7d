"""Integration tests for the distributed Forgiving Graph (Lemma 4 behaviour)."""

import math

import networkx as nx
import pytest

from repro.adversary import MaxDegreeDeletion, RandomDeletion, make_deletion_strategy
from repro.distributed import DistributedForgivingGraph
from repro.generators import make_graph


@pytest.fixture
def small_distributed():
    return DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 40, seed=2))


class TestBasicOperation:
    def test_mirrors_engine_views(self, small_distributed):
        d = small_distributed
        assert d.num_alive == 40
        assert set(d.actual_graph().nodes) == d.alive_nodes
        assert d.nodes_ever == 40

    def test_initial_links_match_graph(self, small_distributed):
        d = small_distributed
        links = {frozenset(l) for l in d.network.links()}
        assert links == {frozenset(e) for e in d.actual_graph().edges}

    def test_delete_returns_cost_report(self, small_distributed):
        d = small_distributed
        victim = sorted(d.alive_nodes)[0]
        report = d.delete(victim)
        assert report.deleted_node == victim
        assert report.messages >= 0
        assert report.rounds >= 1
        assert not d.is_alive(victim)

    def test_insert_sends_notices(self, small_distributed):
        d = small_distributed
        before = d.network.metrics.total_messages
        d.insert(999, attach_to=sorted(d.alive_nodes)[:3])
        assert d.network.metrics.total_messages == before + 3
        assert d.is_alive(999)

    def test_links_track_healed_graph_after_deletions(self, small_distributed):
        d = small_distributed
        for victim in sorted(d.alive_nodes)[:10]:
            if d.num_alive > 2:
                d.delete(victim)
        links = {frozenset(l) for l in d.network.links()}
        assert links == {frozenset(e) for e in d.actual_graph().edges}

    def test_processor_count_matches_alive(self, small_distributed):
        d = small_distributed
        for victim in sorted(d.alive_nodes)[:5]:
            d.delete(victim)
        assert set(d.network.processors) == d.alive_nodes


class TestConsistencyWithEngine:
    @pytest.mark.parametrize("strategy_cls", [RandomDeletion, MaxDegreeDeletion])
    def test_distributed_state_matches_engine(self, strategy_cls):
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 50, seed=4))
        strategy = strategy_cls(seed=0) if strategy_cls is RandomDeletion else strategy_cls()
        for _ in range(30):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
        d.verify_consistency()

    def test_consistency_after_churn(self):
        d = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 30, seed=5))
        fresh = 1000
        for step in range(30):
            if step % 3 == 0:
                d.insert(fresh, attach_to=sorted(d.alive_nodes)[:2])
                fresh += 1
            elif d.num_alive > 3:
                d.delete(sorted(d.alive_nodes)[step % d.num_alive])
        d.verify_consistency()

    def test_healed_graph_stays_connected(self):
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=6))
        for victim in sorted(d.alive_nodes)[:30]:
            if d.num_alive > 2:
                d.delete(victim)
        assert nx.is_connected(d.actual_graph())


class TestLemma4Budgets:
    def test_every_repair_within_message_budget(self):
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 60, seed=7))
        strategy = MaxDegreeDeletion()
        for _ in range(40):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
        assert d.cost_reports
        assert all(report.within_message_budget for report in d.cost_reports)

    @pytest.mark.parametrize(
        "topology,seed,adversary",
        [("erdos_renyi", 8, "random"), ("power_law", 7, "max_degree")],
    )
    def test_every_repair_within_round_budget(self, topology, seed, adversary):
        d = DistributedForgivingGraph.from_graph(make_graph(topology, 60, seed=seed))
        strategy = make_deletion_strategy(adversary, seed=1)
        for _ in range(40):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
        assert all(report.within_round_budget for report in d.cost_reports)

    def test_message_sizes_are_logarithmic(self):
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 80, seed=9))
        for victim in sorted(d.alive_nodes)[:40]:
            if d.num_alive > 3:
                d.delete(victim)
        word_bits = math.ceil(math.log2(d.nodes_ever))
        # The largest message carries O(log n) identifiers of O(log n) bits.
        assert d.network.metrics.max_message_bits <= 70 * word_bits

    def test_star_hub_repair_costs_scale_with_degree(self):
        """Deleting the hub of a star costs O(d log n) messages, not O(d^2)."""
        costs = {}
        for leaves in (15, 31, 63, 255):
            d = DistributedForgivingGraph.from_edges([(0, i) for i in range(1, leaves + 1)])
            report = d.delete(0)
            costs[leaves] = report.messages
            assert report.within_message_budget
            assert report.within_round_budget
        assert costs[63] < 10 * costs[15]  # roughly linear in d, certainly not quadratic

    def test_cost_report_row_is_serialisable(self):
        d = DistributedForgivingGraph.from_edges([(0, i) for i in range(1, 9)])
        report = d.delete(0)
        row = report.as_row()
        assert row["degree"] == 8
        assert row["messages"] == report.messages
