"""The message-native merge under lossless and faulty networks.

Pins the PR 4 tentpole claims:

* the healed structure is computed from message payloads — the engine's
  merge outcome is quarantined (reading it raises) and repairs still work;
* under a lossless network the message-built state (links, source
  multiplicities, helper records) equals the reference oracle after every
  event of randomized churn;
* under seeded drop/delay/reorder schedules processors genuinely diverge
  and the reconvergence loop restores exact agreement with the oracle —
  invariants pass, the healed topology is whole again, and the stretch
  guarantee holds on the *network's* graph, not just the oracle's;
* fault schedules are deterministic given their seed, so every faulty run
  is replayable.
"""

import networkx as nx
import numpy as np
import pytest

from repro.adversary import MaxDegreeDeletion, RandomDeletion
from repro.analysis.bounds import stretch_bound
from repro.core.errors import InvariantViolationError
from repro.distributed import DistributedForgivingGraph, fault_schedule
from repro.distributed.faults import (
    BYZANTINE_PRESETS,
    DELIVERY_PRESETS,
    FAULT_PRESETS,
    FaultSchedule,
    LinkFaultPolicy,
)
from repro.generators import make_graph


def churn(d: DistributedForgivingGraph, steps: int, seed: int, verify_each=None) -> None:
    rng = np.random.default_rng(seed)
    fresh = 10_000
    for _ in range(steps):
        alive = sorted(d.alive_nodes)
        if rng.random() < 0.6 and d.num_alive > 4:
            d.delete(alive[int(rng.integers(0, len(alive)))])
        else:
            count = int(rng.integers(1, 4))
            picks = rng.choice(len(alive), size=min(count, len(alive)), replace=False)
            d.insert(fresh, attach_to=[alive[int(i)] for i in picks])
            fresh += 1
        if verify_each is not None:
            verify_each(d)


class TestLosslessEquivalence:
    def test_randomized_churn_matches_oracle_after_every_event(self):
        """The tentpole acceptance check: message-built state == oracle,
        verified (links, multiplicities, helper records) after every event."""
        d = DistributedForgivingGraph.from_graph(
            make_graph("erdos_renyi", 30, seed=7), quarantine_oracle=True
        )
        churn(d, 60, seed=7, verify_each=lambda healer: healer.verify_consistency())

    def test_network_graph_equals_actual_graph(self):
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=2))
        churn(d, 40, seed=2)
        assert nx.utils.graphs_equal(d.network_graph(), d.actual_graph())

    def test_oracle_quarantine_poisons_merge_outcome(self):
        """Reading the quarantined oracle attributes raises — proving the
        measured path finished without them requires exactly this poison."""
        d = DistributedForgivingGraph.from_edges(
            [(0, i) for i in range(1, 6)], quarantine_oracle=True
        )
        d.delete(0)
        with pytest.raises(AssertionError):
            len(d.engine.last_new_helpers)

    def test_helpers_created_counts_match_oracle_reports(self):
        """Message-native helper counts equal the engine's own repair report."""
        d = DistributedForgivingGraph.from_graph(make_graph("power_law", 40, seed=9))
        strategy = MaxDegreeDeletion()
        for _ in range(20):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            report = d.delete(victim)
            engine_event = d.engine.events[-1]
            assert report.helpers_created == engine_event.report.helpers_created
            assert report.helpers_released == engine_event.report.helpers_released
        d.verify_consistency()


class TestFaultInjection:
    @pytest.mark.parametrize("preset", ["drop", "delay", "reorder", "chaos"])
    def test_seeded_schedules_reconverge_to_oracle(self, preset):
        d = DistributedForgivingGraph.from_graph(
            make_graph("power_law", 40, seed=3),
            fault_schedule=fault_schedule(preset, seed=5),
            quarantine_oracle=True,
        )
        strategy = RandomDeletion(seed=5)
        for _ in range(20):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            report = d.delete(victim)
            assert report.converged
            assert report.within_message_budget
            assert report.within_round_budget
        d.verify_consistency()

    def test_drops_cause_real_divergence_without_reconvergence(self):
        """With auto-reconvergence off, lost messages leave the distributed
        state genuinely inconsistent — the merge is message-native, nothing
        silently falls back to the oracle."""
        diverged = 0
        for seed in range(6):
            d = DistributedForgivingGraph.from_graph(
                make_graph("power_law", 40, seed=3),
                fault_schedule=fault_schedule("drop", seed=seed),
                auto_reconverge=False,
            )
            strategy = RandomDeletion(seed=seed)
            for _ in range(15):
                victim = strategy.choose_victim(d)
                if victim is None or d.num_alive <= 3:
                    break
                d.delete(victim)
            try:
                d.verify_consistency()
            except InvariantViolationError:
                diverged += 1
        assert diverged > 0

    def test_manual_reconverge_repairs_the_divergence(self):
        d = DistributedForgivingGraph.from_graph(
            make_graph("power_law", 40, seed=3),
            fault_schedule=fault_schedule("drop", seed=1),
            auto_reconverge=False,
        )
        strategy = RandomDeletion(seed=1)
        for _ in range(15):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
            recon = d.reconverge()
            assert recon.converged
        d.verify_consistency()

    def test_guarantees_restored_on_the_network_graph(self):
        """After reconvergence the *processors'* topology (not the oracle's)
        is connected and satisfies the Theorem 1.2 stretch bound."""
        d = DistributedForgivingGraph.from_graph(
            make_graph("erdos_renyi", 30, seed=8),
            fault_schedule=fault_schedule("chaos", seed=8),
        )
        strategy = MaxDegreeDeletion()
        for _ in range(12):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
        network_g = d.network_graph()
        assert nx.is_connected(network_g)
        g_prime = d.g_prime_view()
        bound = stretch_bound(d.nodes_ever)
        alive = sorted(d.alive_nodes)[:10]
        for source in alive:
            base = nx.single_source_shortest_path_length(g_prime, source)
            healed = nx.single_source_shortest_path_length(network_g, source)
            for target in alive:
                if target == source or target not in base or base[target] == 0:
                    continue
                assert healed[target] <= bound * base[target] + 1e-9

    def test_faulty_runs_are_deterministic_given_the_seed(self):
        def run(seed):
            d = DistributedForgivingGraph.from_graph(
                make_graph("power_law", 30, seed=4),
                fault_schedule=fault_schedule("chaos", seed=seed),
            )
            strategy = RandomDeletion(seed=2)
            rows = []
            for _ in range(10):
                victim = strategy.choose_victim(d)
                if victim is None or d.num_alive <= 3:
                    break
                rows.append(d.delete(victim).as_row())
            return rows

        assert run(13) == run(13)
        # A different fault seed genuinely changes what the network suffers.
        first, second = run(13), run(14)
        assert [r["deleted"] for r in first] == [r["deleted"] for r in second]
        assert first != second

    def test_dropped_messages_are_counted_per_repair(self):
        d = DistributedForgivingGraph.from_graph(
            make_graph("power_law", 40, seed=6),
            fault_schedule=fault_schedule("drop", seed=3),
        )
        strategy = MaxDegreeDeletion()
        for _ in range(15):
            victim = strategy.choose_victim(d)
            if victim is None or d.num_alive <= 3:
                break
            d.delete(victim)
        assert sum(r.dropped_messages for r in d.cost_reports) > 0
        assert d.network.metrics.total_dropped >= sum(
            r.dropped_messages for r in d.cost_reports
        )


class TestFaultSchedules:
    def test_presets_cover_the_advertised_names(self):
        assert {"lossless", "drop", "delay", "reorder", "chaos"} <= set(FAULT_PRESETS)
        # The byzantine presets are registered too (PR 6) — the delivery
        # registry stays the oracle-equality subset.
        assert {"byzantine", "byzantine-chaos"} <= set(FAULT_PRESETS)
        assert "byzantine" not in DELIVERY_PRESETS
        assert set(BYZANTINE_PRESETS) == {"byzantine", "byzantine-chaos"}

    def test_lossless_preset_builds_no_schedule(self):
        assert fault_schedule("lossless") is None

    def test_byzantine_presets_build_byzantine_schedules(self):
        reliable = fault_schedule("byzantine", seed=1)
        assert reliable is not None and reliable.has_byzantine
        assert reliable.default.is_reliable  # lies over perfect links
        chaotic = fault_schedule("byzantine-chaos", seed=1)
        assert chaotic is not None and chaotic.has_byzantine
        assert not chaotic.default.is_reliable

    def test_unknown_preset_is_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            fault_schedule("quantum-foam")
        # The error names every preset, byzantine ones included.
        message = str(excinfo.value)
        for name in FAULT_PRESETS:
            assert name in message

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            LinkFaultPolicy(drop=1.5)
        with pytest.raises(ValueError):
            LinkFaultPolicy(max_delay=0)

    def test_per_link_overrides(self):
        schedule = FaultSchedule(
            default=LinkFaultPolicy(),
            per_link={("a", "b"): LinkFaultPolicy(drop=1.0)},
            seed=0,
        )
        assert schedule.judge("b", "a") == -1  # unordered pair matches
        assert schedule.judge("a", "c") == 0

    def test_same_seed_same_decisions(self):
        a = FaultSchedule(default=LinkFaultPolicy(drop=0.5), seed=42)
        b = FaultSchedule(default=LinkFaultPolicy(drop=0.5), seed=42)
        assert [a.judge(1, 2) for _ in range(50)] == [b.judge(1, 2) for _ in range(50)]


class TestExperimentsIntegration:
    def test_runner_builds_faulty_distributed_healer(self):
        from repro.experiments import AttackConfig, ExperimentConfig, run_attack
        from repro.generators import GraphSpec

        config = ExperimentConfig(
            name="fault-smoke",
            graph=GraphSpec(topology="erdos_renyi", n=24),
            attack=AttackConfig(
                strategy="max_degree", delete_fraction=0.3, fault_preset="drop"
            ),
            healers=("distributed_forgiving_graph",),
            seed=3,
            stretch_sources=8,
        )
        outcome = run_attack(config, "distributed_forgiving_graph")
        assert outcome.deletions > 0
        assert outcome.final_report.connected

    def test_fault_preset_requires_distributed_healer(self):
        from repro.core.errors import ConfigurationError
        from repro.experiments import AttackConfig, ExperimentConfig, run_attack
        from repro.generators import GraphSpec

        config = ExperimentConfig(
            name="fault-wrong-healer",
            graph=GraphSpec(topology="ring", n=10),
            attack=AttackConfig(fault_preset="drop"),
            healers=("forgiving_graph",),
        )
        with pytest.raises(ConfigurationError):
            run_attack(config, "forgiving_graph")

    def test_unknown_fault_preset_rejected_at_config_time(self):
        from repro.core.errors import ConfigurationError
        from repro.experiments import AttackConfig

        with pytest.raises(ConfigurationError):
            AttackConfig(fault_preset="gamma-rays")

    def test_sweep_fault_presets_rows(self):
        from repro.experiments.sweeps import sweep_fault_presets

        rows = sweep_fault_presets(
            "fault-sweep", "power_law", 24, ["lossless", "drop"], stretch_sources=8
        )
        assert len(rows) == 2
        assert rows[1]["fault_preset"] == "drop"
        assert "fault_preset" not in rows[0]  # lossless rows stay clean
