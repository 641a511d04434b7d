"""Integration tests for the distributed Forgiving Graph (Lemma 4 behaviour)."""

import math

import networkx as nx
import pytest

from repro.adversary import MaxDegreeDeletion, RandomDeletion, make_deletion_strategy
from repro.core.errors import InvariantViolationError
from repro.core.ports import sorted_nodes
from repro.distributed import DistributedForgivingGraph, fault_schedule
from repro.distributed.protocol import select_disjoint_victims
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

    @pytest.mark.parametrize("field", ["rt_parent", "helper_parent"])
    def test_a_wrong_parent_pointer_is_a_divergence(self, field):
        """Below each RT's root, every leaf's ``rt_parent`` and every helper's
        ``helper_parent`` must name the oracle's RT parent: one pointer set
        by hand fails the check, which names the field."""
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 50, seed=4))
        strategy = MaxDegreeDeletion()
        for _ in range(10):
            d.delete(strategy.choose_victim(d))
        d.verify_consistency()
        assert d.audit_reference() == []
        port = next(
            port
            for rt in d.engine.reconstruction_trees()
            for port, node in (rt.leaves if field == "rt_parent" else rt.helpers).items()
            if node.parent is not None
        )
        setattr(d.network.processors[port.processor].ensure_edge(port.neighbor), field, None)
        with pytest.raises(InvariantViolationError, match=field) as raised:
            d.verify_consistency()
        assert d.audit_reference() == [str(raised.value)]

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


def _repair_state(healer):
    """Per processor, the victims of the repairs it holds contexts and
    dissemination epochs for (only processors holding either)."""
    return {
        node: (set(processor.repairs), set(processor.repair_epochs))
        for node, processor in healer.network.processors.items()
        if processor.repairs or processor.repair_epochs
    }


class TestRepairStateRetires:
    """A finished repair leaves no state behind on any processor once it is
    retired: its contexts leave its participants, and its dissemination
    epochs leave every processor it instructed, participant or not.  The
    repair ``delete()`` leaves installed keeps both until the next deletion
    (``reconverge()`` reads them)."""

    @pytest.mark.parametrize("fault", [None, "byzantine"], ids=["lossless", "byzantine"])
    def test_delete_keeps_only_the_installed_repair(self, fault):
        schedule = fault_schedule(fault, seed=3) if fault else None
        healer = DistributedForgivingGraph.from_graph(
            make_graph("power_law", 300, seed=3), fault_schedule=schedule
        )
        strategy = MaxDegreeDeletion()
        instructed_outsiders = 0
        for _ in range(30):
            victim = strategy.choose_victim(healer)
            healer.delete(victim)
            state = _repair_state(healer)
            participants = set(healer._installed.participants)
            for node, (repairs, epochs) in state.items():
                assert repairs <= {victim} and epochs <= {victim}, node
                if epochs and node not in participants:
                    instructed_outsiders += 1
        # The attack did instruct processors outside the plans' participants.
        assert instructed_outsiders > 0
        assert set(healer.network.epoch_holders) <= {victim}
        if fault:
            assert healer.network.quarantined
        healer.delete_batch([strategy.choose_victim(healer)])
        assert _repair_state(healer) == {}
        assert healer.network.epoch_holders == {}

    def test_delete_batch_retires_every_wave(self):
        healer = DistributedForgivingGraph.from_graph(make_graph("power_law", 300, seed=5))
        strategy = MaxDegreeDeletion()
        for _ in range(4):
            healer.delete_batch([strategy.choose_victim(healer)])
            victims = select_disjoint_victims(healer, sorted_nodes(healer.alive_nodes), limit=6)
            burst = healer.delete_batch(victims)
            assert burst.waves >= 1 and len(burst.reports) == len(victims)
            assert _repair_state(healer) == {}
            assert healer.network.epoch_holders == {}
        healer.verify_consistency()
