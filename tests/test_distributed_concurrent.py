"""Concurrent epoch-tagged bursts: admission, identity, silence, containment.

PR 8's contract, each clause tested on its own:

* ``delete_batch(concurrency=1)`` is the retained reference twin — bit-
  identical per-deletion cost reports to sequential ``delete`` calls under
  every delivery preset;
* disjoint-footprint bursts are admitted into one shared ``deliver_round``
  stream (one wave) and finish in fewer rounds than the sequential sum,
  healing to the exact same graph at any concurrency;
* overlapping footprints serialize into waves and still match the oracle;
* the piggybacked background anti-entropy goes provably silent on the
  lossless path (an empty fixed-point probe per epoch);
* a byzantine liar inside a concurrent burst is accused with zero false
  accusations — mixed-epoch traffic does not confuse the accountability
  machinery;
* the engine surfaces bursts as first-class ``StepEvent``s with per-victim
  cost reports.
"""

from __future__ import annotations

import pytest

from repro.adversary import deletion_burst_schedule
from repro.core.ports import NodeKey
from repro.core.views import g_prime_view_of
from repro.distributed.faults import DELIVERY_PRESETS, fault_schedule
from repro.distributed.simulator import DistributedForgivingGraph
from repro.engine import AttackSession
from repro.experiments.sweeps import select_disjoint_victims
from repro.generators.graphs import make_graph


def _cost_key(report):
    return (
        report.deleted_node,
        report.messages,
        report.bits,
        report.rounds,
        report.max_messages_per_node,
    )


def _disjoint_burst(graph, min_k=3, limit=8):
    """A burst of pairwise-disjoint-footprint victims, away from the hubs."""
    probe = DistributedForgivingGraph.from_graph(graph)
    degree = g_prime_view_of(probe).degree
    candidates = [
        v
        for v in sorted(probe.alive_nodes, key=lambda v: (-degree[v], NodeKey(v)))
        if degree[v] >= 3
    ]
    victims = select_disjoint_victims(probe, candidates[5:], limit=limit)
    if len(victims) < min_k:
        victims = select_disjoint_victims(probe, candidates, limit=limit)
    assert len(victims) >= min_k
    return victims


@pytest.fixture(scope="module")
def burst_graph():
    return make_graph("power_law", 80, seed=8)


@pytest.fixture(scope="module")
def burst_victims(burst_graph):
    return _disjoint_burst(burst_graph)


class TestReferenceTwin:
    @pytest.mark.parametrize("preset", sorted(DELIVERY_PRESETS))
    def test_concurrency_one_is_bit_identical_to_sequential(
        self, burst_graph, burst_victims, preset
    ):
        batch = DistributedForgivingGraph.from_graph(
            burst_graph, fault_schedule=fault_schedule(preset, seed=8)
        )
        batch.delete_batch(burst_victims, concurrency=1)
        loop = DistributedForgivingGraph.from_graph(
            burst_graph, fault_schedule=fault_schedule(preset, seed=8)
        )
        for victim in burst_victims:
            loop.delete(victim)
        assert [_cost_key(r) for r in batch.cost_reports] == [
            _cost_key(r) for r in loop.cost_reports
        ]

    def test_concurrency_one_burst_report_shape(self, burst_graph, burst_victims):
        healer = DistributedForgivingGraph.from_graph(burst_graph)
        burst = healer.delete_batch(burst_victims, concurrency=1)
        assert burst.concurrency == 1
        assert burst.waves == len(burst_victims)
        assert burst.wave_sizes == tuple(1 for _ in burst_victims)
        assert [r.deleted_node for r in burst.reports] == list(burst_victims)


class TestConcurrentAdmission:
    def test_disjoint_burst_runs_in_one_wave_and_fewer_rounds(
        self, burst_graph, burst_victims
    ):
        sequential = DistributedForgivingGraph.from_graph(burst_graph)
        seq = sequential.delete_batch(burst_victims, concurrency=1)
        concurrent = DistributedForgivingGraph.from_graph(burst_graph)
        conc = concurrent.delete_batch(burst_victims, concurrency=None)
        assert len(burst_victims) >= 4
        assert conc.waves == 1
        assert conc.wave_sizes == (len(burst_victims),)
        # Burst latency trends to ~max, not ~sum, of the repair latencies.
        assert conc.rounds < 0.6 * seq.rounds
        concurrent.verify_consistency()

    def test_disjoint_burst_heals_identically_at_any_concurrency(
        self, burst_graph, burst_victims
    ):
        def healed_edges(concurrency):
            healer = DistributedForgivingGraph.from_graph(burst_graph)
            healer.delete_batch(burst_victims, concurrency=concurrency)
            healer.verify_consistency()
            return set(map(frozenset, healer.actual_graph().edges))

        reference = healed_edges(1)
        assert healed_edges(4) == reference
        assert healed_edges(None) == reference

    def test_capped_concurrency_bounds_wave_sizes(self, burst_graph, burst_victims):
        healer = DistributedForgivingGraph.from_graph(burst_graph)
        burst = healer.delete_batch(burst_victims, concurrency=2)
        assert all(size <= 2 for size in burst.wave_sizes)
        assert sum(burst.wave_sizes) == len(burst_victims)
        healer.verify_consistency()

    def test_overlapping_footprints_serialize_into_waves(self, burst_graph):
        probe = DistributedForgivingGraph.from_graph(burst_graph)
        degree = g_prime_view_of(probe).degree
        hub = max(probe.alive_nodes, key=lambda v: (degree[v], NodeKey(v)))
        neighbors = sorted(g_prime_view_of(probe).neighbors(hub), key=NodeKey)[:3]
        victims = [hub, *neighbors]
        healer = DistributedForgivingGraph.from_graph(burst_graph)
        burst = healer.delete_batch(victims, concurrency=None)
        # The hub's footprint contains its neighbours', so at least one
        # victim must wait for a predecessor wave to finish.
        assert burst.waves > 1
        assert sum(burst.wave_sizes) == len(victims)
        healer.verify_consistency()


class TestBackgroundAntiEntropy:
    def test_lossless_fixed_point_probe_is_empty(self, burst_graph, burst_victims):
        healer = DistributedForgivingGraph.from_graph(burst_graph)
        burst = healer.delete_batch(burst_victims, concurrency=None)
        for report in burst.reports:
            assert report.recovery is not None
            assert report.recovery.converged
            assert report.recovery.fixed_point_messages == 0

    def test_faulty_delivery_still_converges_in_shared_fabric(self, burst_graph, burst_victims):
        healer = DistributedForgivingGraph.from_graph(
            burst_graph, fault_schedule=fault_schedule("chaos", seed=8)
        )
        burst = healer.delete_batch(burst_victims, concurrency=None)
        assert all(r.converged for r in burst.reports)
        healer.verify_consistency()


class TestByzantineBurst:
    def test_liar_in_concurrent_burst_accused_without_collateral(
        self, burst_graph, burst_victims
    ):
        schedule = fault_schedule("byzantine", seed=8)
        healer = DistributedForgivingGraph.from_graph(
            burst_graph, fault_schedule=schedule
        )
        burst = healer.delete_batch(burst_victims, concurrency=None)
        assert all(r.converged for r in burst.reports)
        transcript = healer.network.transcript
        accused = set(transcript.accused)
        assert accused  # mixed-epoch traffic still catches the liars
        assert all(schedule.is_byzantine(node) for node in accused)


class TestEngineIntegration:
    def test_burst_schedule_streams_first_class_events(self):
        graph = make_graph("power_law", 60, seed=9)
        healer = DistributedForgivingGraph.from_graph(graph)
        schedule = deletion_burst_schedule(steps=3, burst_size=3, seed=9)
        session = AttackSession(healer, schedule, measure_every=0)
        events = list(session.stream())
        assert events
        for event in events:
            assert event.kind == "burst_delete"
            assert len(event.victims) == 3
            assert {r.deleted_node for r in event.cost_reports} == set(event.victims)
            assert event.cost_report is not None
            assert event.cost_report.deleted_node == event.node
        assert session.result.deletions == sum(len(e.victims) for e in events)
        healer.verify_consistency()

    def test_burst_schedule_is_deterministic_per_seed(self):
        graph = make_graph("power_law", 60, seed=9)

        def run():
            healer = DistributedForgivingGraph.from_graph(graph)
            schedule = deletion_burst_schedule(steps=3, burst_size=3, seed=9)
            AttackSession(healer, schedule, measure_every=0).run()
            return (
                [tuple(b.victims) for b in healer.burst_reports],
                set(map(frozenset, healer.actual_graph().edges)),
            )

        assert run() == run()

    def test_burst_falls_back_to_sequential_deletes_without_delete_batch(self):
        from repro.core.forgiving_graph import ForgivingGraph

        graph = make_graph("power_law", 40, seed=9)
        healer = ForgivingGraph.from_graph(graph)
        schedule = deletion_burst_schedule(steps=2, burst_size=3, seed=9)
        events = schedule.run(healer)
        assert events
        assert all(event.kind == "burst_delete" for event in events)
        assert healer.num_alive == 40 - sum(len(e.victims) for e in events)
