"""The incremental distributed accounting: O(repair) link upkeep + cost reports.

Pins the accounting invariants of the distributed layer:
``DistributedForgivingGraph.delete`` performs no full-graph work (no
``actual_graph()`` rebuild, no full edge-set diff, no full metrics
snapshot), the message-driven link maintenance is a fixed point of the
retained full-diff oracle resync under randomized churn, per-deletion cost
reports are isolated from each other (a later cheap repair never inherits
an earlier repair's maxima), ``Network.n_ever`` counts additions, and the
distributed healer is a first-class citizen of the unified engine (registry
entry, ``StepEvent.cost_report``, experiment runner).
"""

import numpy as np

from repro.adversary import (
    MaxDegreeDeletion,
    MaxDegreeDeletionReference,
    RandomDeletion,
    churn_schedule,
    deletion_only_schedule,
)
from repro.baselines import HealerSpec, available_healers
from repro.distributed import DistributedForgivingGraph, Network
from repro.engine import AttackSession
from repro.experiments import AttackConfig, ExperimentConfig, run_attack
from repro.generators import GraphSpec, make_graph


class TestNoFullGraphWork:
    def test_delete_path_never_touches_full_graph_accounting(self, monkeypatch):
        """The acceptance regression: deletions use no O(n + m) accounting."""
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=2))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("full-graph work on the deletion path")

        monkeypatch.setattr(d._engine, "actual_graph", forbidden)
        monkeypatch.setattr(d._engine, "g_prime_view", forbidden)
        monkeypatch.setattr(d._engine, "_rebuild_actual", forbidden)
        monkeypatch.setattr(d.network.metrics, "snapshot", forbidden)
        monkeypatch.setattr(d, "_sync_links_reference", forbidden)

        strategy = MaxDegreeDeletion()
        deleted = 0
        for _ in range(25):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            report = d.delete(victim)
            assert report.rounds >= 1
            deleted += 1
        assert deleted >= 20

    def test_insertions_also_stay_incremental(self, monkeypatch):
        d = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 20, seed=3))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("full-graph work on the insertion path")

        monkeypatch.setattr(d._engine, "actual_graph", forbidden)
        monkeypatch.setattr(d, "_sync_links_reference", forbidden)
        d.insert(999, attach_to=sorted(d.alive_nodes)[:3])
        assert d.is_alive(999)


class TestLinkMaintenanceEquivalence:
    def test_message_driven_links_are_a_fixed_point_of_the_oracle_resync(self):
        """After every churn event the message-maintained link set is a fixed
        point of the retained full-diff oracle resync (same links and sources)."""
        rng = np.random.default_rng(11)
        d = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 30, seed=11))
        fresh = 10_000
        for _ in range(60):
            alive = sorted(d.alive_nodes)
            if rng.random() < 0.5 and d.num_alive > 4:
                d.delete(alive[int(rng.integers(0, len(alive)))])
            else:
                count = int(rng.integers(1, 4))
                picks = rng.choice(len(alive), size=min(count, len(alive)), replace=False)
                d.insert(fresh, attach_to=[alive[int(i)] for i in picks])
                fresh += 1
            after_delta = d.network.links()
            d._sync_links_reference()
            assert d.network.links() == after_delta
        d.verify_consistency()

    def test_window_accounting_matches_snapshot_diff_reference(self):
        """Per-repair window counters equal the retained snapshot-diff values."""
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=3))
        strategy = RandomDeletion(seed=5)
        for _ in range(20):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            before = d.network.metrics.snapshot()
            report = d.delete(victim)
            after = d.network.metrics
            assert report.messages == after.total_messages - before.total_messages
            assert report.bits == after.total_bits - before.total_bits
            per_node = {
                proc: after.messages_sent_by_node.get(proc, 0)
                - before.messages_sent_by_node.get(proc, 0)
                for proc in after.messages_sent_by_node
            }
            assert report.max_messages_per_node == max(per_node.values(), default=0)


class TestCostReportIsolation:
    def test_small_repair_does_not_inherit_run_maxima(self):
        """A cheap deletion after an expensive one reports its own (tiny) costs."""
        edges = [(0, i) for i in range(1, 33)] + [(100, 101), (101, 102)]
        d = DistributedForgivingGraph.from_edges(edges)
        big = d.delete(0)  # the hub: lots of messages, large primary-root lists
        assert big.messages > 0
        assert big.max_message_bits > 0

        small = d.delete(102)  # isolated pendant: one trivial leaf, no traffic
        assert small.messages == 0
        assert small.max_message_bits == 0
        assert small.max_messages_per_node == 0
        # The run-wide maximum survives on the cumulative metrics only.
        assert d.network.metrics.max_message_bits >= big.max_message_bits

    def test_per_repair_maxima_vary_across_an_attack(self):
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 60, seed=7))
        strategy = MaxDegreeDeletion()
        for _ in range(40):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
        cumulative = d.network.metrics.max_message_bits
        assert all(r.max_message_bits <= cumulative for r in d.cost_reports)
        # With per-repair accounting the values differ between repairs; the
        # seed accounting reported the cumulative maximum for every report.
        assert len({r.max_message_bits for r in d.cost_reports}) > 1


class TestNetworkNEver:
    def test_n_ever_counts_additions_under_interleaved_add_remove(self):
        net = Network()
        for node in "abc":
            net.add_processor(node)
        assert net.n_ever == 3
        net.remove_processor("a")
        net.remove_processor("b")
        net.add_processor("d")
        net.add_processor("e")
        # 5 processors were ever added although only 3 currently exist; the
        # seed's max(n_ever, len(processors)) would have reported 3.
        assert net.n_ever == 5
        assert len(net.processors) == 3

    def test_re_adding_existing_processor_does_not_double_count(self):
        net = Network()
        net.add_processor("a")
        net.add_processor("a")
        assert net.n_ever == 1

    def test_simulator_cross_checks_network_count_against_engine(self):
        d = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 12, seed=4))
        d.insert(500, attach_to=sorted(d.alive_nodes)[:2])
        d.delete(sorted(d.alive_nodes)[0])
        assert d.network.n_ever == d.nodes_ever == 13
        d.verify_consistency()  # includes the n_ever cross-check


class TestEngineIntegration:
    def test_registry_builds_distributed_healer(self):
        assert "distributed_forgiving_graph" in available_healers()
        healer = HealerSpec("distributed_forgiving_graph").build(make_graph("ring", 10))
        assert isinstance(healer, DistributedForgivingGraph)
        victim = sorted(healer.alive_nodes)[0]
        report = healer.delete(victim)
        assert report.deleted_node == victim

    def test_step_events_carry_deletion_cost_reports(self):
        d = DistributedForgivingGraph.from_graph(make_graph("erdos_renyi", 24, seed=9))
        schedule = churn_schedule(steps=20, delete_probability=0.6, seed=9)
        session = AttackSession(d, schedule, stretch_sources=8, measure_every=0)
        events = list(session.stream())
        deletions = [e for e in events if e.kind == "delete"]
        assert deletions
        for event in deletions:
            assert event.cost_report is not None
            assert event.cost_report.deleted_node == event.node
        assert all(e.cost_report is None for e in events if e.kind == "insert")
        assert session.result is not None
        assert session.result.final_report.connected

    def test_session_loop_equals_bespoke_loop(self):
        """Routing E5 through AttackSession reproduces the bespoke loop's rows."""
        graph = make_graph("power_law", 60, seed=5)

        driven = DistributedForgivingGraph.from_graph(graph)
        schedule = deletion_only_schedule(
            steps=25, strategy=MaxDegreeDeletion(), min_survivors=3
        )
        session = AttackSession(driven, schedule, measure_every=0, measure_final=False)
        session_rows = [
            e.cost_report.as_row() for e in session.stream() if e.cost_report is not None
        ]

        bespoke = DistributedForgivingGraph.from_graph(graph)
        strategy = MaxDegreeDeletion()
        bespoke_rows = []
        for _ in range(25):
            victim = strategy.choose_victim(bespoke)
            if victim is None or bespoke.num_alive <= 3:
                break
            bespoke_rows.append(bespoke.delete(victim).as_row())

        assert session_rows == bespoke_rows

    def test_runner_drives_distributed_healer(self):
        config = ExperimentConfig(
            name="dist-smoke",
            graph=GraphSpec(topology="erdos_renyi", n=24),
            attack=AttackConfig(strategy="max_degree", delete_fraction=0.3),
            healers=("distributed_forgiving_graph",),
            seed=3,
            stretch_sources=8,
        )
        outcome = run_attack(config, "distributed_forgiving_graph")
        assert outcome.healer_name == "distributed_forgiving_graph"
        assert outcome.deletions > 0
        assert outcome.final_report.connected

    def test_incremental_adversary_matches_reference_on_distributed_healer(self):
        """The lazy-heap fast path engages on the distributed healer and picks
        the same victims as the retained full-scan reference."""
        a = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=6))
        b = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=6))
        incremental, reference = MaxDegreeDeletion(), MaxDegreeDeletionReference()
        for _ in range(25):
            victim_a = incremental.choose_victim(a)
            victim_b = reference.choose_victim(b)
            assert victim_a == victim_b
            if victim_a is None or a.num_alive <= 3:
                break
            a.delete(victim_a)
            b.delete(victim_b)
        a.verify_consistency()
