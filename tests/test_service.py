"""The long-lived healer service and the typed config API (PR 9).

Pins the tentpole claims:

* the typed config stack — ``FaultSpec.parse`` is the single fault-axis
  entry point (presets, schedules, specs; errors name every preset) and
  ``HealerSpec`` validates at construction and survives its JSON round
  trip: the rebuilt spec replays a session bit-identically, fault axis
  included;
* the checkpoint store round-trips the full distributed state (Table 1
  records through the typed codec, sourced links, transcript, census);
* crash-recover is real: abandoning a daemon mid-churn and restoring
  from its store replays the journal around the last checkpoint and
  certifies (reconverge + empty audit + ``verify_consistency``);
* a processor rejoining with a stale checkpoint image mid-repair is a
  digest divergence that recovery heals with genuine retransmissions;
* concurrent client streams are deterministic under a fixed seed.
"""

import dataclasses
import random

import pytest

from repro.baselines import HealerSpec, available_healers
from repro.core.errors import ConfigurationError
from repro.distributed import DistributedForgivingGraph, fault_schedule
from repro.distributed.faults import DELIVERY_PRESETS, FAULT_PRESETS, FaultSpec
from repro.distributed.processor import EdgeRecord
from repro.generators import make_graph
from repro.generators.graphs import GraphSpec
from repro.service import (
    SCHEMA_VERSION,
    CheckpointStore,
    HealerDaemon,
    ServiceConfig,
    ServiceMetrics,
)
from repro.service.store import decode_value, encode_value


# --------------------------------------------------------------------------- #
# FaultSpec.parse — the unified fault axis (satellite: api_redesign)
# --------------------------------------------------------------------------- #
class TestFaultSpec:
    def test_parse_accepts_every_shape(self):
        assert FaultSpec.parse(None).is_lossless
        assert FaultSpec.parse("drop").preset == "drop"
        schedule = fault_schedule("reorder", seed=3)
        wrapped = FaultSpec.parse(schedule)
        assert wrapped.schedule is schedule
        spec = FaultSpec("delay", seed=9)
        assert FaultSpec.parse(spec) is spec

    def test_parse_error_names_every_preset(self):
        with pytest.raises(ValueError) as excinfo:
            FaultSpec.parse("gamma-rays")
        for preset in FAULT_PRESETS:
            assert preset in str(excinfo.value)

    def test_parse_rejects_wrong_types(self):
        with pytest.raises(TypeError):
            FaultSpec.parse(42)

    def test_build_materializes_fresh_deterministic_schedules(self):
        spec = FaultSpec("drop", seed=5)
        first, second = spec.build(), spec.build()
        assert first is not second
        assert first.name == second.name == "drop"
        assert first.seed == second.seed == 5

    def test_json_round_trip_and_schedule_rejection(self):
        spec = FaultSpec("delay", seed=2)
        assert FaultSpec.from_json(spec.to_json()) == spec
        explicit = FaultSpec.parse(fault_schedule("drop", seed=1))
        with pytest.raises(ValueError):
            explicit.to_json()


# --------------------------------------------------------------------------- #
# HealerSpec: typed healer construction
# --------------------------------------------------------------------------- #
class TestHealerSpec:
    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(ConfigurationError) as excinfo:
            HealerSpec("perfect_healer")
        assert "forgiving_graph" in str(excinfo.value)

    def test_fault_schedule_option_rejected(self):
        with pytest.raises(ConfigurationError):
            HealerSpec(
                "distributed_forgiving_graph",
                {"fault_schedule": fault_schedule("drop", seed=0)},
            )

    def test_non_distributed_healer_rejects_faults(self):
        with pytest.raises(ConfigurationError):
            HealerSpec("forgiving_graph", fault="drop")

    @pytest.mark.parametrize("name", sorted(available_healers()))
    def test_json_round_trip_rebuilds_identical_sessions(self, name):
        """A spec rebuilt from its JSON form replays the same session."""
        spec = HealerSpec(name)
        rebuilt = HealerSpec.from_json(spec.to_json())
        assert rebuilt == spec
        graph = make_graph("power_law", 24, seed=4)
        edges_before = set(graph.edges)
        first, second = spec.build(graph), rebuilt.build(graph)
        rng = random.Random(11)
        for _ in range(6):
            victims = sorted(first.alive_nodes, key=repr)
            if len(victims) <= 3:
                break
            victim = rng.choice(victims)
            first.delete(victim)
            second.delete(victim)
        assert len(first.alive_nodes) < graph.number_of_nodes()
        assert set(first.actual_graph().edges) == set(second.actual_graph().edges)
        assert set(graph.edges) == edges_before  # each build healed its own copy

    def test_json_round_trip_keeps_fault_axis(self):
        """The rebuilt spec materializes the same fault schedule, per build."""
        spec = HealerSpec("distributed_forgiving_graph", fault=FaultSpec("drop", seed=7))
        rebuilt = HealerSpec.from_json(spec.to_json())
        assert rebuilt.fault == spec.fault
        graph = make_graph("power_law", 24, seed=4)
        first, second = spec.build(graph), rebuilt.build(graph)
        assert first.fault_schedule is not second.fault_schedule
        rng = random.Random(2)
        dropped = 0
        for _ in range(6):
            victim = rng.choice(sorted(first.alive_nodes, key=repr))
            r1 = first.delete(victim)
            r2 = second.delete(victim)
            assert (r1.messages, r1.dropped_messages, r1.retransmissions) == (
                r2.messages,
                r2.dropped_messages,
                r2.retransmissions,
            )
            dropped += r1.dropped_messages
        assert dropped > 0
        assert set(first.actual_graph().edges) == set(second.actual_graph().edges)


# --------------------------------------------------------------------------- #
# ServiceConfig (the top of the typed stack)
# --------------------------------------------------------------------------- #
class TestServiceConfig:
    def test_round_trip(self):
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40),
            fault="drop",
            seed=3,
            checkpoint_every=8,
            batch_window=2,
        )
        assert ServiceConfig.from_json(config.to_json()) == config

    def test_rejects_explicit_schedule(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(fault=fault_schedule("drop", seed=0))

    def test_rejects_non_distributed_healer(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(healer="forgiving_graph")

    @pytest.mark.parametrize("preset", ["gamma-rays", "byzantine", "byzantine-chaos"])
    def test_rejects_unknown_fault_preset(self, preset):
        with pytest.raises(ConfigurationError) as excinfo:
            ServiceConfig(fault=preset)
        for name in DELIVERY_PRESETS:
            assert name in str(excinfo.value)


# --------------------------------------------------------------------------- #
# the store: typed codec + checkpoint round-trip
# --------------------------------------------------------------------------- #
class TestStore:
    def test_codec_round_trips_protocol_values(self):
        from repro.core.ports import Port

        values = [
            None,
            True,
            False,
            0,
            -3,
            "node-a",
            Port("a", "b"),
            Port(1, 2),
            ("rt", Port(1, 2), Port(3, 4)),
            ("real", frozenset((5, 6))),
            frozenset(("x", "y")),
        ]
        for value in values:
            assert decode_value(encode_value(value)) == value

    def test_codec_rejects_exotic_types(self):
        with pytest.raises(ConfigurationError):
            encode_value(object())

    def test_checkpoint_round_trip(self, tmp_path):
        """Records, links, census and transcript survive the store verbatim."""
        graph = make_graph("power_law", 32, seed=6)
        healer = DistributedForgivingGraph.from_graph(graph)
        rng = random.Random(9)
        for _ in range(8):
            healer.delete_batch([rng.choice(sorted(healer.alive_nodes, key=repr))])
        store = CheckpointStore(tmp_path / "run.db")
        store.initialize({"probe": True}, graph)
        ckpt_id = store.write_checkpoint(healer, seq=8)

        network = healer.network
        records = store.load_records(ckpt_id)
        names = [f.name for f in dataclasses.fields(EdgeRecord)]

        for node, processor in network.processors.items():
            stored = records[node]
            assert set(stored) == set(processor.edges)
            for neighbor, record in processor.edges.items():
                assert list(stored[neighbor]) == names
                for name in names:
                    assert stored[neighbor][name] == getattr(record, name), (
                        f"{node}->{neighbor}.{name} did not round-trip"
                    )
        assert store.load_links(ckpt_id) == network.export_link_sources()
        info = store.latest_checkpoint()
        assert info.ckpt_id == ckpt_id
        assert info.seq == 8
        assert info.n_ever == network.n_ever
        assert set(info.alive) == set(network.processors)
        assert store.genesis_graph().number_of_edges() == graph.number_of_edges()
        store.close()

    def test_record_payload_order_is_schema_v1(self):
        """Checkpoint payloads list EdgeRecord fields in this order under v1."""
        assert SCHEMA_VERSION == 1
        assert [f.name for f in dataclasses.fields(EdgeRecord)] == [
            "neighbor",
            "endpoint",
            "neighbor_alive",
            "has_helper",
            "rt_parent",
            "representative",
            "helper_parent",
            "helper_left",
            "helper_right",
            "helper_height",
            "helper_children_count",
            "helper_representative",
            "helper_victim",
        ]

    def test_schema_version_guard(self, tmp_path):
        path = tmp_path / "run.db"
        store = CheckpointStore(path)
        store.initialize({}, make_graph("ring", 4))
        store._set_meta("schema_version", "999")
        store._conn.commit()
        store.close()
        with pytest.raises(ConfigurationError):
            CheckpointStore(path)

    def test_double_initialize_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.db")
        store.initialize({}, make_graph("ring", 4))
        with pytest.raises(ConfigurationError):
            store.initialize({}, make_graph("ring", 4))
        store.close()


def _drive(daemon, steps, seed, pump_every=5):
    """Two interleaved client streams of seeded churn."""
    clients = [daemon.client("alice"), daemon.client("bob")]
    rng = random.Random(seed)
    next_id = 10_000
    for i in range(steps):
        client = clients[i % 2]
        alive = sorted(daemon._projected_alive, key=repr)
        if rng.random() < 0.3:
            client.insert(next_id, rng.sample(alive, min(3, len(alive))))
            next_id += 1
        else:
            client.delete(rng.choice(alive))
        if (i + 1) % pump_every == 0:
            daemon.pump()
    daemon.pump()


# --------------------------------------------------------------------------- #
# the daemon: churn, crash-recover, rejoin, determinism
# --------------------------------------------------------------------------- #
class TestHealerDaemon:
    def test_churn_applies_and_checkpoints(self, tmp_path):
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=8, batch_window=3
        )
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        _drive(daemon, 24, seed=7)
        daemon.healer.verify_consistency()
        status = daemon.status()
        assert status["ops_applied"] == 24
        assert status["journal"]["applied"] == 24
        assert status["checkpoints"] >= 2
        assert status["recovery"]["fixed_point_noisy"] == 0  # lossless: silent
        assert status["latency_ms"]["p50"] > 0
        daemon.close()

    def test_validation_rejects_bad_submissions(self, tmp_path):
        config = ServiceConfig(graph=GraphSpec("ring", 8), seed=0)
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        client = daemon.client("c")
        with pytest.raises(ConfigurationError):
            client.delete("nonexistent")
        with pytest.raises(ConfigurationError):
            client.insert(0)  # identifier already alive
        client.delete(0)
        with pytest.raises(ConfigurationError):
            client.delete(0)  # projected dead before the pump
        daemon.close()

    @pytest.mark.parametrize(
        "backlog",
        [("delete",), ("insert", "delete")],
        ids=["delete-reinsert", "insert-delete-reinsert"],
    )
    def test_reinsert_of_a_backlogged_id_is_rejected(self, tmp_path, backlog):
        """An insert reusing an id the unpumped backlog names is refused
        before it is journalled: applied, it would raise in every pump and
        every restore of the store."""
        db = tmp_path / "run.db"
        daemon = HealerDaemon.create(
            db, ServiceConfig(graph=GraphSpec("erdos_renyi", 20), seed=1)
        )
        client = daemon.client("c")
        node = 0 if backlog == ("delete",) else 500
        for kind in backlog:
            if kind == "insert":
                client.insert(node, [1, 2])
            else:
                client.delete(node)
        journalled = daemon.store.journal_len()
        with pytest.raises(ConfigurationError):
            client.insert(node, [1, 2])
        assert daemon.store.journal_len() == journalled
        assert daemon.pump() == len(backlog)
        assert daemon.backlog == 0
        daemon.store.close()
        del daemon

        restored, report = HealerDaemon.restore(db)
        assert report.converged and report.audit_clean and report.verified
        assert node not in restored.healer.alive_nodes
        restored.close()

    def test_kill_and_restart_reconverges(self, tmp_path):
        """Abandoning the daemon mid-churn loses nothing the journal holds."""
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=8, batch_window=3
        )
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 22, seed=7)
        expected_alive = set(daemon._projected_alive)
        # Submit (journal) a tail that is never pumped, then "crash".
        rng = random.Random(99)
        client = daemon.client("tail")
        for _ in range(3):
            client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))
        expected_alive = set(daemon._projected_alive)
        daemon.store.close()
        del daemon

        restored, report = HealerDaemon.restore(db)
        assert report.checkpoint_seq > 0
        assert report.suffix_ops >= 3
        assert report.converged and report.audit_clean and report.verified
        assert set(restored.healer.alive_nodes) == expected_alive
        restored.healer.verify_consistency()
        status = restored.status()
        assert status["restarts"] == 1
        # The links are lossless, so every fixed-point probe was silent.
        assert status["recovery"]["fixed_point_silent"] > 0
        assert status["recovery"]["fixed_point_noisy"] == 0
        restored.close()

    def test_restart_without_checkpoint_replays_full_path(self, tmp_path):
        db = tmp_path / "run.db"
        config = ServiceConfig(graph=GraphSpec("power_law", 32), seed=5, checkpoint_every=0)
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 10, seed=1)
        daemon.store.close()
        del daemon
        restored, report = HealerDaemon.restore(db)
        assert report.checkpoint_seq == 0
        assert report.prefix_ops == 0
        assert report.suffix_ops == 10
        assert report.converged and report.audit_clean and report.verified
        restored.close()

    def test_restart_under_faulty_preset(self, tmp_path):
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("erdos_renyi", 36),
            fault="drop",
            seed=5,
            checkpoint_every=6,
            batch_window=2,
        )
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 15, seed=2, pump_every=4)
        daemon.store.close()
        del daemon
        restored, report = HealerDaemon.restore(db)
        assert report.converged and report.audit_clean and report.verified
        restored.close()

    def test_stale_rejoin_heals_through_digest_recovery(self, tmp_path):
        """A participant restarting from a stale checkpoint image is healed."""
        healed_with_retransmissions = 0
        for seed in range(4):
            config = ServiceConfig(
                graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=0
            )
            daemon = HealerDaemon.create(tmp_path / f"run{seed}.db", config)
            _drive(daemon, 8 + seed, seed=seed)
            report = daemon.rejoin_stale()
            assert report.converged, report
            assert report.audit_clean, report
            assert report.verified, report
            if report.stale is not None and report.records_rolled_back:
                assert report.retransmissions > 0  # genuine divergence healed
                healed_with_retransmissions += 1
            daemon.close()
        assert healed_with_retransmissions > 0

    def test_concurrent_streams_deterministic_under_fixed_seed(self, tmp_path):
        """Same seed, same submissions => bit-identical service state."""
        outcomes = []
        for run in range(2):
            config = ServiceConfig(
                graph=GraphSpec("power_law", 40), seed=9, checkpoint_every=8, batch_window=3
            )
            daemon = HealerDaemon.create(tmp_path / f"det{run}.db", config)
            _drive(daemon, 20, seed=13)
            status = daemon.status()
            outcomes.append(
                (
                    set(daemon.healer.actual_graph().edges),
                    set(daemon.healer.network_graph().edges),
                    sorted(daemon.healer.alive_nodes, key=repr),
                    status["deletes"],
                    status["inserts"],
                    status["waves"],
                    status["recovery"],
                    [
                        (op.seq, op.kind, op.node, op.apply_rank)
                        for op in daemon.store.journal_ops()
                    ],
                )
            )
            daemon.close()
        assert outcomes[0] == outcomes[1]

    def test_status_endpoint_serves_live_json(self, tmp_path):
        import json
        from urllib.request import urlopen

        config = ServiceConfig(graph=GraphSpec("power_law", 32), seed=1)
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        _drive(daemon, 6, seed=3)
        server = daemon.serve_status(port=0)
        try:
            with urlopen(server.url) as response:
                payload = json.loads(response.read())
            assert payload["ops_applied"] == 6
            assert payload["journal"]["applied"] == 6
        finally:
            daemon.close()


class TestServiceMetrics:
    def test_percentiles_and_rates(self):
        metrics = ServiceMetrics(latency_window=8)
        for ms in (1.0, 2.0, 3.0, 4.0):
            metrics.record_insert(ms)
        snap = metrics.snapshot()
        assert snap["latency_ms"]["p50"] == 2.0
        assert snap["latency_ms"]["p99"] == 4.0
        assert snap["ops_applied"] == 4
        assert snap["ops_per_sec"] > 0

    def test_window_bounds_samples(self):
        metrics = ServiceMetrics(latency_window=4)
        for ms in range(10):
            metrics.record_insert(float(ms))
        assert metrics.snapshot()["latency_ms"]["samples"] == 4
