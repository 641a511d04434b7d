"""The long-lived healer service and the typed config API (PR 9).

Pins the tentpole claims:

* the typed config stack — ``FaultSpec.parse`` is the single fault-axis
  entry point (presets, schedules, specs; errors name every preset) and
  ``HealerSpec`` validates at construction; two builds of one spec replay
  a session bit-identically, each with its own fault schedule;
* ``ServiceConfig`` is a graph and a fault axis, and still loads the
  ``healer`` entry older stores carry;
* the checkpoint store round-trips the full distributed state (Table 1
  records through the typed codec, sourced links, transcript, census);
  its one image is the genesis plus one row per record and per link a
  checkpoint rewrote, read back by one composer (exact because only RT
  link sources are ever removed), a checkpoint writes exactly the rows its
  marks name, and the direct row encoder writes exactly the bytes of the
  tagged-list reference codec;
* v1, v2 and v3 stores open and restore;
* a store that fails to open, or a restore of a path without a store,
  leaves no connection open and creates no file;
* crash-recover is real: abandoning a daemon mid-churn and restoring
  from its store replays the journal around the last checkpoint and
  certifies (every suffix deletion converged, empty audit,
  ``verify_consistency``); a replay that did not converge is reported as
  such and not checkpointed;
* a checkpoint that fails keeps the previous image, the marks, and the
  apply ranks the pump committed before it, and a crash at any write
  statement of a seeded run loses no acknowledged op;
* a processor rejoining with a stale checkpoint image mid-repair is a
  digest divergence that recovery heals with genuine retransmissions; the
  image it re-reads is composed on the genesis network alone, no engine;
* concurrent client streams are deterministic under a fixed seed;
* generated daemon programs (submit, pump, checkpoint, crash + restore,
  stale rejoin) keep the stored image equal to the live state after every
  checkpoint, and every restore and rejoin certifies.
"""

import dataclasses
import importlib.util
import json
import random
import sqlite3
import sys
import tempfile
from pathlib import Path

import networkx.classes.graphviews as graphviews
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule

from repro.baselines import HealerSpec, available_healers
from repro.core.errors import ConfigurationError
from repro.core.ports import Port
from repro.distributed import DistributedForgivingGraph, Network, fault_schedule
from repro.distributed.faults import DELIVERY_PRESETS, FAULT_PRESETS, FaultSpec
from repro.distributed.processor import EdgeRecord, Processor, init_record
from repro.generators import make_graph
from repro.generators.graphs import GraphSpec
from repro.service import (
    SCHEMA_VERSION,
    CheckpointStore,
    HealerDaemon,
    ServiceConfig,
    ServiceMetrics,
)
from repro.service.metrics import percentile
from repro.service.store import (
    _ENCODE,
    _RECORD_FIELDS,
    _dumps,
    _record_payload,
    decode_value,
    encode_value,
)

_REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", _REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


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
    def test_two_builds_replay_identical_sessions(self, name):
        """Two builds of one spec replay the same session."""
        spec = HealerSpec(name)
        graph = make_graph("power_law", 24, seed=4)
        edges_before = set(graph.edges)
        first, second = spec.build(graph), spec.build(graph)
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

    def test_each_build_gets_its_own_fault_schedule(self):
        """Every build materializes the spec's fault axis afresh."""
        spec = HealerSpec("distributed_forgiving_graph", fault=FaultSpec("drop", seed=7))
        graph = make_graph("power_law", 24, seed=4)
        first, second = spec.build(graph), spec.build(graph)
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

    def test_has_no_healer_option(self):
        """The service runs the distributed healer; there is nothing to choose."""
        for name in ("forgiving_graph", "distributed_forgiving_graph"):
            with pytest.raises(TypeError):
                ServiceConfig(healer=name)

    @pytest.mark.parametrize("preset", ["gamma-rays", "byzantine", "byzantine-chaos"])
    def test_rejects_unknown_fault_preset(self, preset):
        with pytest.raises(ConfigurationError) as excinfo:
            ServiceConfig(fault=preset)
        for name in DELIVERY_PRESETS:
            assert name in str(excinfo.value)


# --------------------------------------------------------------------------- #
# the store: typed codec + checkpoint round-trip
# --------------------------------------------------------------------------- #
#: Node ids, then every value shape the protocol state holds, nested.
_ids = st.integers(-(2**40), 2**40) | st.text(max_size=5)
_values = st.recursive(
    st.none() | st.booleans() | _ids | st.builds(Port, _ids, _ids),
    lambda children: (
        st.lists(children, max_size=3).map(tuple) | st.frozensets(children, max_size=4)
    ),
    max_leaves=8,
)


class TestStore:
    def test_codec_round_trips_protocol_values(self):
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
            # Encoded ids are the image's row keys: the shared encoder must
            # write exactly what a fresh compact json.dumps writes.
            assert _dumps(value) == json.dumps(encode_value(value), separators=(",", ":"))

    def test_codec_pins_the_port_encoding(self):
        """A Port is a tuple, so the codec must tag it before the tuple case."""
        port = Port(1, "a")
        assert _dumps(port) == '["P",["i",1],["s","a"]]'
        assert _dumps(("rt", port, Port("b", 2))) == (
            '["t",[["s","rt"],["P",["i",1],["s","a"]],["P",["s","b"],["i",2]]]]'
        )
        assert type(decode_value(encode_value(port))) is Port
        key = decode_value(encode_value(("rt", port, port)))
        assert [type(item) for item in key] == [str, Port, Port]

    def test_codec_rejects_exotic_types(self):
        with pytest.raises(ConfigurationError):
            encode_value(object())
        for value in (object(), 1.5, ("rt", 2.0), frozenset((b"x",))):
            with pytest.raises(ConfigurationError):
                _dumps(value)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(value=_values)
    def test_text_encoder_writes_the_reference_bytes(self, value):
        """The direct encoder writes exactly what the tagged lists plus the
        compact JSON encoder write: encoded ids are row keys."""
        assert _dumps(value) == _ENCODE(encode_value(value))
        assert decode_value(json.loads(_dumps(value))) == value

    def test_text_encoder_on_subclasses_and_odd_strings(self):
        """Subclasses take the reference path; escapes and non-ASCII text
        encode as the JSON encoder escapes them."""

        class NodeNumber(int):
            def __str__(self):
                return "not-a-number"

        class Label(str):
            pass

        class Pair(tuple):
            pass

        for value in (
            NodeNumber(7),
            Label("x"),
            Pair((1, "a")),
            Port(NodeNumber(3), Label("b")),
            ("real", frozenset((NodeNumber(1), 2))),
            'quote" back\\slash \n tab\t é ☃ \ud83d',
            frozenset(("a,b", "a", ("a",), "a\"", "")),
            frozenset((("s", 1), ("s", 10), ("s", 2), Port(1, 2), Port(1, 10))),
            2**80,
            -(2**80),
        ):
            assert _dumps(value) == _ENCODE(encode_value(value)), value

    def test_record_payload_writes_the_reference_bytes(self):
        """Every record of a healed network encodes in one pass to the bytes
        of its field-by-field reference encoding."""
        graph = make_graph("power_law", 60, seed=2)
        healer = DistributedForgivingGraph.from_graph(graph)
        rng = random.Random(2)
        for step in range(30):
            alive = sorted(healer.alive_nodes, key=repr)
            if step % 3 == 2:
                healer.insert(1000 + step, rng.sample(alive, 3))
            else:
                healer.delete_batch([rng.choice(alive)])
        records = [
            p.record(neighbor) for p in healer.network.processors.values() for neighbor in p.edges
        ]
        assert any(record.has_helper for record in records)
        for record in records:
            reference = _ENCODE([encode_value(getattr(record, name)) for name in _RECORD_FIELDS])
            assert _record_payload(record) == reference

    @pytest.mark.parametrize("preset", ["lossless", "byzantine"])
    def test_checkpoint_round_trip(self, tmp_path, preset):
        """Records, links, census and transcript survive the store verbatim:
        after each of two checkpoints the genesis plus the rows composes the
        live state, records in order, and the second checkpoint rewrote only
        what changed after the first.  A network that keeps no marks cannot
        be checkpointed.

        Under ``byzantine`` each checkpoint adds accusations and quarantines
        processors, so the rewrite also appends to the transcript and drops
        removed processors' rows.
        """
        graph = make_graph("power_law", 32, seed=6)
        healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=6)
        )
        network = healer.network
        rng = random.Random(9)
        store = CheckpointStore(tmp_path / "run.db")
        store.initialize({"probe": True}, graph)
        names = [f.name for f in dataclasses.fields(EdgeRecord)]
        with pytest.raises(ConfigurationError):
            store.write_checkpoint(healer, seq=0)
        assert store.latest_checkpoint() is None
        marks = network.start_marks()

        for seq, moves in ((5, 5), (8, 3)):
            for _ in range(moves):
                healer.delete_batch([rng.choice(sorted(healer.alive_nodes, key=repr))])
            ckpt_id = store.write_checkpoint(healer, seq=seq)
            assert not (marks.records or marks.links or marks.removed)

            _assert_image_matches(store, network)
            for node, stored in store.load_records().items():
                for neighbor, fields in stored.items():
                    assert list(fields) == names
                    record = network.processors[node].record(neighbor)
                    for name in names:
                        assert fields[name] == getattr(record, name), (
                            f"{node}->{neighbor}.{name} did not round-trip"
                        )
            assert store.load_transcript() == _accusations(network)
            info = store.latest_checkpoint()
            assert info.ckpt_id == ckpt_id
            assert info.seq == seq
            assert info.n_ever == network.n_ever
            assert set(info.alive) == set(network.processors)
            assert set(info.quarantined) == network.quarantined
        # The second checkpoint rewrote only what changed: rows the first
        # one wrote are still there.
        (kept,) = store._conn.execute(
            "SELECT COUNT(*) FROM records WHERE ckpt_id < ?", (ckpt_id,)
        ).fetchone()
        assert kept > 0
        if preset == "byzantine":
            assert network.quarantined
            assert store._conn.execute(
                "SELECT COUNT(DISTINCT ckpt_id) FROM transcript"
            ).fetchone() == (2,)
        assert store.genesis_graph().number_of_edges() == graph.number_of_edges()
        store.close()

    @pytest.mark.parametrize("preset", [*DELIVERY_PRESETS, "byzantine"])
    def test_only_rt_link_sources_are_ever_removed(self, preset):
        """The image reader's premise: no real-edge source is ever removed,
        so a genesis link lasts as long as both of its endpoints, through
        deletions, bursts and insertions, under faults and liars alike."""
        graph = make_graph("power_law", 60, seed=4)
        healer = DistributedForgivingGraph.from_graph(
            graph, fault_schedule=fault_schedule(preset, seed=4)
        )
        network = healer.network
        removed = []
        remove = Network.remove_link_source

        def recording(self, key, u, v):
            removed.append(key)
            return remove(self, key, u, v)

        rng = random.Random(4)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Network, "remove_link_source", recording)
            for step in range(24):
                alive = sorted(healer.alive_nodes, key=repr)
                if step % 4 == 3:
                    healer.insert(1000 + step, rng.sample(alive, 3))
                elif step % 4 == 2:
                    healer.delete_batch(rng.sample(alive, 3))
                else:
                    healer.delete(rng.choice(alive))
                for u, v in graph.edges:
                    if network.has_processor(u) and network.has_processor(v):
                        assert network.has_link_source(("real", frozenset((u, v))), u, v)
        assert removed
        assert {key[0] for key in removed} == {"rt"}

    def test_record_payload_order_is_schema_v4(self):
        """Checkpoint payloads list EdgeRecord fields in this order under v4
        (unchanged since v2; v3 made the genesis the image's base, v4 made
        rows stand per record and per link)."""
        assert SCHEMA_VERSION == 4
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

    def test_v1_store_is_migrated_when_opened(self, tmp_path):
        """A v1 store, one full image per checkpoint, restores and certifies,
        and afterwards holds one image under the v2 row keys."""
        live_db, v1_db = tmp_path / "live.db", tmp_path / "v1.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=0, batch_window=3
        )
        daemon = HealerDaemon.create(live_db, config)
        legacy = sqlite3.connect(str(v1_db))
        legacy.executescript(_V1_TABLES)
        legacy.execute("ATTACH DATABASE ? AS live", (str(live_db),))
        client = daemon.client("c")
        rng = random.Random(4)

        def churn(ops):
            for _ in range(ops):
                client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))
            daemon.pump()

        for _ in range(2):
            # v1 wrote each checkpoint as a full image under its own ckpt_id:
            # marking every record and link makes the checkpoint write one.
            churn(4)
            _mark_whole_processors(daemon.healer.network, daemon.healer.network.processors)
            ckpt = daemon.checkpoint()
            legacy.execute("INSERT INTO checkpoints SELECT * FROM live.checkpoints")
            for table, columns in (
                ("records", "processor, neighbor, payload"),
                ("links", "u, v, sources"),
                ("transcript", "accused, reporter, reason, round"),
            ):
                legacy.execute(
                    f"INSERT INTO {table} SELECT ?, {columns} FROM live.{table}", (ckpt,)
                )
            legacy.commit()  # ends the read snapshot of the live store
        client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))  # the suffix
        for table in ("meta", "genesis_nodes", "genesis_edges", "journal"):
            legacy.execute(f"INSERT INTO {table} SELECT * FROM live.{table}")
        legacy.execute("UPDATE meta SET value='1' WHERE key='schema_version'")
        legacy.commit()
        assert legacy.execute("SELECT COUNT(*) FROM checkpoints").fetchone() == (2,)
        legacy.close()
        daemon.close()

        restored, report = HealerDaemon.restore(v1_db)
        assert report.converged and report.audit_clean and report.verified, report
        assert report.suffix_ops == 1
        store, network = restored.store, restored.healer.network
        assert store._meta("schema_version") == str(SCHEMA_VERSION)
        assert store.checkpoint_count() == 3
        assert store._conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone() == (1,)
        assert store._conn.execute("SELECT COUNT(*) FROM records").fetchone() == (
            sum(len(p.edges) for p in network.processors.values()),
        )
        _assert_image_matches(store, network)
        indexes = {
            name
            for (name,) in store._conn.execute("SELECT name FROM sqlite_master WHERE type='index'")
        }
        assert not indexes & {"idx_records_ckpt", "idx_links_ckpt", "idx_transcript_ckpt"}
        restored.close()

    def test_double_initialize_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.db")
        store.initialize({}, make_graph("ring", 4))
        with pytest.raises(ConfigurationError):
            store.initialize({}, make_graph("ring", 4))
        store.close()

    @pytest.mark.parametrize("version", [2, 3])
    def test_v2_and_v3_stores_open_unchanged_and_restore(self, tmp_path, version):
        """A v2 store holds a complete image and a v3 store every row of each
        processor a checkpoint rewrote.  Both are valid v4 images: opening
        one rewrites no row, and it restores and certifies."""
        db = tmp_path / f"v{version}.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=0, batch_window=3
        )
        daemon = HealerDaemon.create(db, config)
        network = daemon.healer.network
        _drive(daemon, 8, seed=5)
        # v2's first checkpoint wrote the whole image; every later one (and
        # every v3 one) wrote whole processors, each that changed.
        _mark_whole_processors(network, network.processors if version == 2 else None)
        daemon.checkpoint()
        client = daemon.client("c")
        for node in sorted(daemon._projected_alive, key=repr)[:4]:
            client.delete(node)
        daemon.pump()
        _mark_whole_processors(network)
        daemon.checkpoint()
        client.delete(sorted(daemon._projected_alive, key=repr)[0])
        daemon.store._set_meta("schema_version", str(version))
        daemon.store._conn.commit()
        daemon.close()

        def image_rows():
            conn = sqlite3.connect(str(db))
            try:
                return [
                    sorted(conn.execute(f"SELECT * FROM {table}"))
                    for table in ("checkpoints", "records", "links", "transcript")
                ]
            finally:
                conn.close()

        image = image_rows()
        store = CheckpointStore(db)
        assert store._meta("schema_version") == str(SCHEMA_VERSION)
        store.close()
        assert image_rows() == image

        restored, report = HealerDaemon.restore(db)
        assert report.converged and report.audit_clean and report.verified, report
        assert report.suffix_ops == 1
        _assert_image_matches(restored.store, restored.healer.network)
        restored.close()


def _tracked_connections(monkeypatch):
    """Every sqlite connection opened from here on (for leak checks)."""
    opened = []
    connect = sqlite3.connect

    def tracking(*args, **kwargs):
        conn = connect(*args, **kwargs)
        opened.append(conn)
        return conn

    monkeypatch.setattr(sqlite3, "connect", tracking)
    return opened


def _is_closed(conn):
    try:
        conn.execute("SELECT 1")
    except sqlite3.ProgrammingError:
        return True
    return False


class TestStoreLifetime:
    """A store that fails to open, or a restore that refuses, leaves no
    connection open and creates no file."""

    def test_schema_guard_closes_the_connection(self, tmp_path, monkeypatch):
        path = tmp_path / "run.db"
        store = CheckpointStore(path)
        store.initialize({}, make_graph("ring", 4))
        store._set_meta("schema_version", "999")
        store._conn.commit()
        store.close()
        opened = _tracked_connections(monkeypatch)
        with pytest.raises(ConfigurationError):
            CheckpointStore(path)
        assert len(opened) == 1 and _is_closed(opened[0])

    def test_failed_v1_migration_closes_the_connection(self, tmp_path, monkeypatch):
        """Two rows for one record key in the latest v1 image break the
        migration's unique index: the migration rolls back and the
        connection closes."""
        path = tmp_path / "v1.db"
        legacy = sqlite3.connect(str(path))
        legacy.executescript(_V1_TABLES)
        legacy.execute("INSERT INTO meta VALUES ('schema_version', '1')")
        legacy.execute("INSERT INTO checkpoints VALUES (1, 0, 1, '[]', '[]')")
        legacy.executemany(
            "INSERT INTO records VALUES (1, ?, ?, '[]')", [(_dumps(1), _dumps(2))] * 2
        )
        legacy.commit()
        legacy.close()
        opened = _tracked_connections(monkeypatch)
        with pytest.raises(sqlite3.IntegrityError):
            CheckpointStore(path)
        assert len(opened) == 1 and _is_closed(opened[0])
        monkeypatch.undo()
        check = sqlite3.connect(str(path))
        assert check.execute("SELECT value FROM meta").fetchone() == ("1",)
        check.close()

    def test_restore_refuses_a_missing_path(self, tmp_path, monkeypatch):
        path = tmp_path / "missing.db"
        opened = _tracked_connections(monkeypatch)
        with pytest.raises(ConfigurationError):
            HealerDaemon.restore(path)
        assert not path.exists()
        assert not opened

    def test_restore_of_an_empty_store_closes_it(self, tmp_path, monkeypatch):
        path = tmp_path / "empty.db"
        CheckpointStore(path).close()
        opened = _tracked_connections(monkeypatch)
        with pytest.raises(ConfigurationError):
            HealerDaemon.restore(path)
        assert len(opened) == 1 and _is_closed(opened[0])


#: The table layout of schema v1, which kept one full image per checkpoint.
_V1_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS genesis_nodes (
    node TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS genesis_edges (
    u TEXT NOT NULL,
    v TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS journal (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    client TEXT NOT NULL,
    kind TEXT NOT NULL,
    node TEXT NOT NULL,
    attach TEXT NOT NULL,
    applied INTEGER NOT NULL DEFAULT 0,
    apply_rank INTEGER,
    latency_ms REAL
);
CREATE TABLE IF NOT EXISTS checkpoints (
    ckpt_id INTEGER PRIMARY KEY AUTOINCREMENT,
    seq INTEGER NOT NULL,
    n_ever INTEGER NOT NULL,
    alive TEXT NOT NULL,
    quarantined TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS records (
    ckpt_id INTEGER NOT NULL,
    processor TEXT NOT NULL,
    neighbor TEXT NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_records_ckpt ON records (ckpt_id);
CREATE TABLE IF NOT EXISTS links (
    ckpt_id INTEGER NOT NULL,
    u TEXT NOT NULL,
    v TEXT NOT NULL,
    sources TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_links_ckpt ON links (ckpt_id);
CREATE TABLE IF NOT EXISTS transcript (
    ckpt_id INTEGER NOT NULL,
    accused TEXT NOT NULL,
    reporter TEXT NOT NULL,
    reason TEXT NOT NULL,
    round INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_transcript_ckpt ON transcript (ckpt_id);
"""


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


def _accusations(network):
    """The live transcript in the store's ``load_transcript`` shape."""
    return [(a.accused, a.reporter, a.reason, a.round) for a in network.transcript.accusations]


def _records(network):
    """Every processor's Table 1 records, in the network's own orders, each
    read through ``Processor.record``."""
    return [
        (node, [(neighbor, dataclasses.astuple(p.record(neighbor))) for neighbor in p.edges])
        for node, p in network.processors.items()
    ]


def _genesis(store):
    """A network bootstrapped from the store's genesis, the image's base."""
    return DistributedForgivingGraph.from_graph(store.genesis_graph()).network


def _image(store):
    """The store's image, composed the way a restore composes it: a genesis
    bootstrap turned into the image by the checkpoint rows (the genesis
    alone before the first checkpoint)."""
    network = _genesis(store)
    ckpt = store.latest_checkpoint()
    if ckpt is not None:
        store.load_image(network, ckpt)
    return network


def _assert_image_matches(store, network):
    """The store's one image, genesis plus rows, equals the network's live
    state: records (in order), every link and its sources, the quarantine
    set and the transcript."""
    image = _image(store)
    assert _records(image) == _records(network)
    assert image.links() == network.links()
    assert image.export_link_sources() == network.export_link_sources()
    assert image.quarantined == network.quarantined
    assert _accusations(image) == _accusations(network)


def _stored_processors(store):
    """The processors that have record rows."""
    return {
        decode_value(json.loads(owner))
        for (owner,) in store._conn.execute("SELECT DISTINCT processor FROM records")
    }


def _stored_records(store, ckpt_id=None):
    """The ``(processor, neighbor)`` keys of the record rows, or of those ``ckpt_id`` wrote."""
    return {
        (decode_value(json.loads(owner)), decode_value(json.loads(neighbor)))
        for owner, neighbor in store._conn.execute(
            "SELECT processor, neighbor FROM records WHERE ckpt_id = coalesce(?, ckpt_id)",
            (ckpt_id,),
        )
    }


def _stored_links(store, ckpt_id=None):
    """The endpoint pairs of the link rows, or of those ``ckpt_id`` wrote."""
    return {
        frozenset((decode_value(json.loads(u)), decode_value(json.loads(v))))
        for u, v in store._conn.execute(
            "SELECT u, v FROM links WHERE ckpt_id = coalesce(?, ckpt_id)", (ckpt_id,)
        )
    }


def _live_rows(network):
    """Every record by ``(processor, neighbor)`` and every link's sources."""
    records = {
        (node, neighbor): dataclasses.astuple(processor.record(neighbor))
        for node, processor in network.processors.items()
        for neighbor in processor.edges
    }
    return records, network.export_link_sources()


def _marked_links(marks):
    """The links the marks name, as ``frozenset`` endpoint pairs; each link
    is marked once, under the pair its first write named."""
    links = {frozenset(pair) for pair in marks.links}
    assert len(links) == len(marks.links)
    return links


def _changed(before, after):
    """The keys whose values differ between two ``{key: value}`` maps."""
    return {key for key in before.keys() | after.keys() if before.get(key) != after.get(key)}


def _mark_whole_processors(network, nodes=None):
    """Mark every record and sourced link of ``nodes`` — by default of each
    processor the marks touch — which is what a checkpoint before schema
    v4 rewrote for each processor it rewrote.  Each link is marked as if
    the image held no sources for it, so the checkpoint rewrites its row."""
    marks = network.marks
    if nodes is None:
        nodes = {owner for owner, _ in marks.records}.union(*marks.links)
    for node in nodes:
        processor = network.processors.get(node)
        if processor is None:
            continue
        for neighbor in processor.edges:
            processor.mark_record(neighbor)
        for neighbor in network.neighbors(node):
            if network.link_sources(node, neighbor):
                marks.links.pop((neighbor, node), None)
                marks.links[(node, neighbor)] = ()


class _Crash(Exception):
    """The write statement a test chose to fail."""


class _FaultyConnection:
    """A store's sqlite connection that counts its write statements (those
    starting with ``statement``, or any INSERT/UPDATE/DELETE) and fails the
    ``fail_at``-th one with :class:`_Crash` instead of running it.  With
    ``close`` the connection first closes without committing, which is
    what a killed process leaves of sqlite's committed state."""

    def __init__(self, conn, fail_at=None, statement=None, close=False):
        self._conn = conn
        self._fail_at = fail_at
        self._statement = statement
        self._close = close
        self.writes = 0
        self.crashed = False

    def _count(self, sql):
        sql = sql.lstrip()
        if self._statement is not None:
            counted = sql.startswith(self._statement)
        else:
            counted = sql.split(None, 1)[0].upper() in ("INSERT", "UPDATE", "DELETE")
        if counted:
            self.writes += 1
            if self.writes == self._fail_at:
                self.crashed = True
                if self._close:
                    self._conn.close()
                raise _Crash(f"write statement {self.writes}: {sql[:40]}")

    def execute(self, sql, *args):
        self._count(sql)
        return self._conn.execute(sql, *args)

    def executemany(self, sql, rows):
        self._count(sql)
        return self._conn.executemany(sql, rows)

    def __enter__(self):
        self._conn.__enter__()
        return self

    def __exit__(self, *exc):
        if self.crashed and self._close:
            return False  # nothing left to roll back: the connection is gone
        return self._conn.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._conn, name)


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

    def test_pumps_leave_no_degree_touch_journal_behind(self, tmp_path):
        """Nothing in the service tails the engine's degree-touch journal, so
        every pump compacts it to nothing, and so does a restore: a
        long-lived daemon keeps no healed-degree change it has applied."""
        db = tmp_path / "run.db"
        config = ServiceConfig(graph=GraphSpec("power_law", 64), seed=5, checkpoint_every=16)
        daemon = HealerDaemon.create(db, config)
        log = daemon.healer.engine.degree_touch_log
        client = daemon.client("churn")
        rng = random.Random(13)
        next_id = 1_000
        for step in range(320):
            alive = sorted(daemon._projected_alive)
            # Delete with probability alive / 2n, so the graph stays near n.
            if rng.random() < len(alive) / 128:
                client.delete(rng.choice(alive))
            else:
                client.insert(next_id, rng.sample(alive, 3))
                next_id += 1
            if step % 8 == 7:
                daemon.pump()
                assert len(log) == log.compacted, step
        assert log.compacted > 1_000  # the churn did touch degrees
        daemon.healer.verify_consistency()
        daemon.store.close()
        del daemon

        restored, report = HealerDaemon.restore(db)
        assert report.verified
        log = restored.healer.engine.degree_touch_log
        assert len(log) == log.compacted > 0
        restored.close()

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

    def test_insert_validation_checks_ids_without_a_graph_view(self, tmp_path, monkeypatch):
        """An insert's id check reads the network's ever-had-a-processor
        census and the backlog, with no view of ``G'``.  It still refuses
        every spent id: alive, deleted (before and after a restore), or
        named by the backlog."""
        db = tmp_path / "run.db"
        daemon = HealerDaemon.create(db, ServiceConfig(graph=GraphSpec("ring", 8), seed=0))
        client = daemon.client("c")
        views = []
        original = graphviews.generic_graph_view

        def counted(*args, **kwargs):
            views.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(graphviews, "generic_graph_view", counted)

        def refused(node):
            journalled = daemon.store.journal_len()
            with pytest.raises(ConfigurationError, match="already in use"):
                client.insert(node, [1])
            assert daemon.store.journal_len() == journalled

        client.delete(3)
        client.insert("fresh", [1, 2])
        client.insert("short-lived", [1])
        client.delete("short-lived")
        for node in (0, 3, "fresh", "short-lived"):  # alive, pending deletion, pending
            refused(node)
        assert views == []
        assert daemon.pump() == 4
        for node in (0, 3, "fresh", "short-lived"):  # alive or deleted
            refused(node)
        client.insert("late", [0])
        assert views == []
        daemon.pump()
        daemon.store.close()
        del daemon

        daemon, report = HealerDaemon.restore(db)
        assert report.verified
        views.clear()  # the restore's certification reads the oracle's views
        client = daemon.client("c")
        for node in (0, 3, "fresh", "short-lived", "late"):
            refused(node)
        assert views == []
        daemon.close()

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

    @pytest.mark.parametrize("checkpoint_every", [8, 0], ids=["image", "genesis"])
    def test_restore_starts_checkpoint_marks_once(self, tmp_path, monkeypatch, checkpoint_every):
        """A restore starts the checkpoint marks once, where the network
        equals the stored image: ``load_image`` writes into a network that
        keeps no marks, and without a checkpoint the bootstrap is the image."""
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=checkpoint_every
        )
        daemon = HealerDaemon.create(db, config)
        assert daemon.healer.network.marks is not None
        _drive(daemon, 20, seed=7)
        daemon.store.close()
        del daemon

        marks_at_load, starts = [], []
        load_image, start_marks = CheckpointStore.load_image, Network.start_marks

        def spied_load_image(store, network, ckpt, *memo):
            marks_at_load.append(network.marks)
            return load_image(store, network, ckpt, *memo)

        def spied_start_marks(network):
            starts.append(network.marks)
            return start_marks(network)

        monkeypatch.setattr(CheckpointStore, "load_image", spied_load_image)
        monkeypatch.setattr(Network, "start_marks", spied_start_marks)
        restored, report = HealerDaemon.restore(db)
        assert report.converged and report.verified
        assert (report.checkpoint_seq > 0) == bool(checkpoint_every)
        assert marks_at_load == ([None] if checkpoint_every else [])
        assert starts == [None]
        restored.close()

    def test_restore_decodes_each_identity_once(self, tmp_path):
        """Every read of a restore decodes through one memo, so the restored
        records and link keys hold one object per distinct ``Port`` value
        and one per node id, however many rows name it (ids past 256, which
        CPython does not cache, included)."""
        db = tmp_path / "run.db"
        config = ServiceConfig(graph=GraphSpec("power_law", 400), seed=3, checkpoint_every=8)
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 24, seed=7)
        daemon.checkpoint()
        daemon.close()
        restored, report = HealerDaemon.restore(db)
        assert report.verified and report.suffix_ops == 0
        network = restored.healer.network
        ports, ids = {}, {}

        def note(value):
            if isinstance(value, Port):
                ports.setdefault(value, set()).add(id(value))
                note(value.processor)
                note(value.neighbor)
            elif isinstance(value, (tuple, frozenset)):
                for item in value:
                    note(item)
            elif type(value) is int or type(value) is str:
                ids.setdefault(value, set()).add(id(value))

        for owner, processor in network.processors.items():
            note(owner)
            for neighbor, record in processor.edges.items():
                note(neighbor)
                if record is not None:
                    for name in ("neighbor", "helper_victim"):
                        note(getattr(record, name))
                    for name in _RECORD_FIELDS:
                        value = getattr(record, name)
                        if isinstance(value, Port):
                            note(value)
        for u, links in network._links.items():
            note(u)
            for v, keys in links.items():
                note(v)
                note(tuple(key for key in keys if isinstance(key, tuple)))
        assert len(ports) > 100 and max(ids, key=lambda node: (type(node) is int, node)) > 256
        assert all(len(objects) == 1 for objects in ports.values())
        assert all(len(objects) == 1 for objects in ids.values())
        restored.close()

    def test_restore_reads_one_image_while_a_live_daemon_checkpoints(
        self, tmp_path, monkeypatch
    ):
        """A second daemon churns (inserts included) and commits a checkpoint
        between the restore's header read and its row reads: the restore
        still reads the one image the header names, from its own snapshot,
        and certifies it."""
        db = tmp_path / "run.db"
        config = ServiceConfig(graph=GraphSpec("power_law", 120), seed=5, checkpoint_every=0)
        live = HealerDaemon.create(db, config)
        _drive(live, 12, seed=1)
        live.checkpoint()
        header = CheckpointStore.latest_checkpoint
        raced = []

        def racing(store, memo=None):
            ckpt = header(store, memo)
            if not raced:
                client = live.client("carol")
                alive = sorted(live._projected_alive, key=repr)
                for node in range(20_000, 20_004):
                    client.insert(node, alive[:3])
                    raced.append(node)
                client.delete(alive[-1])
                live.pump()
                live.checkpoint()
            return ckpt

        monkeypatch.setattr(CheckpointStore, "latest_checkpoint", racing)
        restored, report = HealerDaemon.restore(db)
        monkeypatch.undo()
        # The newer image names processors this header lacks.
        assert raced and all(node in live.healer.network.processors for node in raced)
        assert not any(node in restored.healer.network.processors for node in raced)
        assert report.verified and report.converged and report.suffix_ops == 0
        assert set(restored.healer.alive_nodes) != set(live.healer.alive_nodes)
        restored.close()
        live.close()

    def test_restore_sizes_the_census_set_once(self, tmp_path):
        """The restored id census is as large as a set grown one id at a time
        over the same ids: the loader adds only the ids it lacks, instead of
        merging a whole second set into it."""
        db = tmp_path / "run.db"
        config = ServiceConfig(graph=GraphSpec("power_law", 256), seed=2, checkpoint_every=0)
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 40, seed=3)
        daemon.checkpoint()
        daemon.close()
        restored, report = HealerDaemon.restore(db)
        assert report.verified
        ever = restored.healer.network._ever_ids
        assert len(ever) == restored.healer.nodes_ever > 256
        grown = set()
        for node in ever:
            grown.add(node)
        assert sys.getsizeof(ever) == sys.getsizeof(grown)
        restored.close()

    def test_restore_of_a_store_with_a_healer_entry(self, tmp_path):
        """A store whose config still carries the ``healer`` entry older
        stores were written with restores and certifies."""
        db = tmp_path / "run.db"
        config = ServiceConfig(graph=GraphSpec("power_law", 32), seed=5, checkpoint_every=4)
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 10, seed=1)
        legacy = dict(
            config.to_json(),
            healer={
                "name": "distributed_forgiving_graph",
                "options": {},
                "fault": {"preset": "lossless", "seed": None},
            },
        )
        daemon.store._set_meta("config", json.dumps(legacy))
        daemon.store._conn.commit()
        daemon.store.close()
        del daemon
        restored, report = HealerDaemon.restore(db)
        assert restored.config == config
        assert report.converged and report.audit_clean and report.verified
        restored.close()

    def test_restore_reports_a_suffix_replay_that_did_not_converge(
        self, tmp_path, monkeypatch
    ):
        """Certification reads the suffix replay's own convergence.

        With every recovery predicate forced false, no suffix deletion
        reaches its fixed point: the restore must say so and must not write
        a checkpoint on top of that state.
        """
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=5, checkpoint_every=8, batch_window=3
        )
        daemon = HealerDaemon.create(db, config)
        client = daemon.client("c")
        rng = random.Random(5)
        for i in range(15):
            client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))
            if i < 12 and (i + 1) % 4 == 0:
                daemon.pump()
        assert daemon.backlog == 3
        checkpoints = daemon.store.checkpoint_count()
        assert checkpoints > 0
        daemon.store.close()
        del daemon

        monkeypatch.setattr(Processor, "recovery_satisfied", lambda self, victim: False)
        restored, report = HealerDaemon.restore(db)
        assert report.suffix_ops == len(restored.healer.cost_reports) == 7
        assert not any(r.converged for r in restored.healer.cost_reports)
        assert report.converged is False
        assert restored.store.checkpoint_count() == checkpoints
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

    def test_stale_rejoin_on_a_fresh_daemon(self, tmp_path):
        """On a fresh daemon no checkpoint has rewritten the stale processor,
        so the image it restarts from is its genesis records: the rollback
        still finds the record the repair rewired, and recovery heals it."""
        for seed in range(6):
            config = ServiceConfig(graph=GraphSpec("power_law", 64), seed=seed, checkpoint_every=0)
            daemon = HealerDaemon.create(tmp_path / f"run{seed}.db", config)
            report = daemon.rejoin_stale()
            assert report.stale is not None, seed
            assert report.stale not in _stored_processors(daemon.store), seed
            assert (report.records_rolled_back, report.retransmissions) == (1, 2), (seed, report)
            assert report.converged and report.audit_clean and report.verified, (seed, report)
            daemon.close()

    def test_rejoin_reads_only_the_stale_processors_rows(self, tmp_path):
        """The image a stale rejoin re-reads is one processor's own record
        rows (``load_records`` with an owner) over the records ``Init``
        made, with no genesis load.  For every processor that equals the
        image a restore composes (the reference: a genesis bootstrap plus
        every row), records in order."""
        config = ServiceConfig(
            graph=GraphSpec("power_law", 64), seed=5, checkpoint_every=8, batch_window=3
        )
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        _drive(daemon, 24, seed=2)
        daemon.checkpoint()
        store, network = daemon.store, daemon.healer.network
        every_row = store.load_records()
        assert every_row and len(every_row) < len(network.processors)
        reference = dict(_records(_image(store)))
        for node, processor in network.processors.items():
            rows = store.load_records(node)
            assert rows == ({node: every_row[node]} if node in every_row else {})
            own = rows.get(node, {})
            image = [
                (
                    neighbor,
                    dataclasses.astuple(
                        EdgeRecord(**own[neighbor])
                        if neighbor in own
                        else init_record(node, neighbor)
                    ),
                )
                for neighbor in processor.edges
            ]
            assert image == reference[node], node

        statements = []
        store._conn.set_trace_callback(statements.append)
        try:
            report = daemon.rejoin_stale()
        finally:
            store._conn.set_trace_callback(None)
        assert report.stale is not None
        assert report.converged and report.audit_clean and report.verified, report
        assert not [sql for sql in statements if "genesis" in sql]
        record_reads = [sql for sql in statements if "FROM records" in sql]
        assert len(record_reads) == 1 and "WHERE processor=" in record_reads[0]
        daemon.close()

    def test_first_checkpoint_writes_only_what_changed_since_genesis(self, tmp_path):
        """The genesis is the image's base: a fresh daemon's first checkpoint
        writes the records written since genesis and the links whose sources
        changed since genesis, and no other, and the status endpoint reports
        its time and the rows it rewrote."""
        config = ServiceConfig(
            graph=GraphSpec("power_law", 64), seed=4, checkpoint_every=0, batch_window=3
        )
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        store, network = daemon.store, daemon.healer.network
        marks = network.marks
        assert not (marks.records or marks.links or marks.removed)
        daemon.checkpoint()
        assert _stored_records(store) == set()
        assert _stored_links(store) == set()
        _assert_image_matches(store, network)
        _, genesis_links = _live_rows(network)

        _drive(daemon, 12, seed=4)
        records = list(marks.records)
        live_records = sum(len(p.edges) for p in network.processors.values())
        assert 0 < len(records) < live_records
        _, links = _live_rows(network)
        changed_links = _changed(genesis_links, links)
        assert changed_links <= _marked_links(marks)
        daemon.checkpoint()
        assert _stored_records(store) == {key for key in records if key[0] in network.processors}
        assert _stored_links(store) == changed_links & links.keys()
        _assert_image_matches(store, network)
        status = daemon.status()["checkpoint"]
        assert status["last_record_rows"] == status["record_rows"] == len(records)
        assert status["last_link_rows"] == status["link_rows"] == len(changed_links)
        assert status["total_ms"] >= status["last_ms"] > 0
        daemon.close()

    @pytest.mark.parametrize("fault", ["lossless", "reorder"])
    def test_checkpoint_after_one_deletion_writes_exactly_what_changed(self, tmp_path, fault):
        """A fresh daemon's first deletion strips no earlier repair, so each
        record and link it writes ends changed: the checkpoint after it
        writes exactly the records and links that changed, drops the rows
        of the links that went, and keeps nothing else.  (A later repair may
        strip an RT edge and rebuild the same one, a rewrite that ends equal;
        under ``delay`` recovery retracts and re-adds links the same way.)"""
        for seed in range(3):
            config = ServiceConfig(
                graph=GraphSpec("power_law", 64), fault=fault, seed=seed, checkpoint_every=0
            )
            daemon = HealerDaemon.create(tmp_path / f"run{seed}.db", config)
            store, healer = daemon.store, daemon.healer
            records, links = _live_rows(healer.network)
            victim = max(healer.alive_nodes, key=lambda n: (healer.g_prime_degree(n), repr(n)))
            daemon.client("c").delete(victim)
            daemon.pump()
            ckpt = daemon.checkpoint()
            now_records, now_links = _live_rows(healer.network)
            changed_records = _changed(records, now_records) & now_records.keys()
            changed_links = _changed(links, now_links)
            gone = changed_links - now_links.keys()
            assert gone and all(victim in link for link in gone)
            assert _stored_records(store) == _stored_records(store, ckpt) == changed_records
            assert _stored_links(store) == _stored_links(store, ckpt) == changed_links - gone
            status = daemon.status()["checkpoint"]
            assert (status["last_record_rows"], status["last_link_rows"]) == (
                len(changed_records),
                len(changed_links),
            )
            _assert_image_matches(store, healer.network)
            daemon.close()

    def test_a_link_whose_sources_end_unchanged_writes_no_row(self, tmp_path):
        """A repair's strip can remove an RT edge that its merge rebuilds with
        the same key.  The link is marked, but its sources end where the
        image holds them, so the checkpoint leaves its row alone; it writes
        exactly the links that changed, and the image still equals the live
        state.  (``power_law`` n=64, seed 0: the seventh deletion does this.)"""
        config = ServiceConfig(graph=GraphSpec("power_law", 64), seed=0, checkpoint_every=0)
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        store, network = daemon.store, daemon.healer.network
        client, rng = daemon.client("c"), random.Random(0)

        def delete_one():
            client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))
            daemon.pump()

        for _ in range(6):
            delete_one()
        previous = daemon.checkpoint()
        _, before = _live_rows(network)
        delete_one()
        _, after = _live_rows(network)
        rebuilt = {
            frozenset(link)
            for link, keys in network.marks.links.items()
            if any(type(key) is tuple and key[0] == "rt" for key in keys)
            and before.get(frozenset(link)) == after.get(frozenset(link))
        }
        assert rebuilt
        changed = _changed(before, after)
        ckpt = daemon.checkpoint()
        assert rebuilt <= _stored_links(store, previous)
        assert _stored_links(store, ckpt) == changed & after.keys()
        assert daemon.status()["checkpoint"]["last_link_rows"] == len(changed)
        _assert_image_matches(store, network)
        daemon.close()

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

    def test_store_retains_one_image(self, tmp_path):
        """After k checkpoints the store holds one header and one image."""
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=4, batch_window=3
        )
        daemon = HealerDaemon.create(tmp_path / "run.db", config)
        _drive(daemon, 24, seed=7)
        daemon.checkpoint()
        checkpoints = daemon.status()["checkpoints"]
        assert checkpoints >= 5
        store, network = daemon.store, daemon.healer.network

        def rows(table):
            return store._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]

        assert rows("checkpoints") == 1
        assert store.checkpoint_count() == checkpoints
        # One row per live record and per sourced link some checkpoint
        # rewrote: every one that differs from genesis has a row, and the
        # rest of the live state has none.
        genesis_records, genesis_links = _live_rows(_genesis(store))
        records, links = _live_rows(network)
        stored_records, stored_links = _stored_records(store), _stored_links(store)
        assert _changed(genesis_records, records) & records.keys() <= stored_records
        assert stored_records <= records.keys()
        assert 0 < len(stored_records) < len(records)
        assert rows("records") == len(stored_records)
        assert _changed(genesis_links, links) & links.keys() <= stored_links <= links.keys()
        assert rows("links") == len(stored_links)
        assert rows("transcript") == len(network.transcript)
        _assert_image_matches(store, network)
        daemon.close()

    def test_failed_checkpoint_leaves_the_previous_image(self, tmp_path, monkeypatch):
        """A checkpoint that fails mid-write rolls back: the next journal
        write commits none of it, and the next checkpoint writes every
        record and link changed since the last good one."""
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=0, batch_window=3
        )
        daemon = HealerDaemon.create(db, config)
        store, network = daemon.store, daemon.healer.network
        marks = network.marks
        client = daemon.client("c")
        rng = random.Random(3)

        def churn(ops):
            for _ in range(ops):
                client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))
            daemon.pump()

        def image_rows():
            return [
                sorted(store._conn.execute(f"SELECT * FROM {table}"))
                for table in ("checkpoints", "records", "links", "transcript")
            ]

        churn(4)
        good = daemon.checkpoint()
        image = image_rows()
        churn(4)

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        # The header is written and superseded by the time the first record
        # row is encoded.
        monkeypatch.setattr("repro.service.store._record_payload", disk_full)
        with pytest.raises(OSError):
            daemon.checkpoint()
        monkeypatch.undo()
        client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))

        assert store.latest_checkpoint().ckpt_id == good
        assert image_rows() == image
        failed_records, failed_links = set(marks.records), _marked_links(marks)
        assert failed_records and failed_links
        daemon.pump()
        assert failed_records <= marks.records.keys() and failed_links <= _marked_links(marks)
        union_records, union_links = set(marks.records), _marked_links(marks)
        ckpt = daemon.checkpoint()
        assert _stored_records(store, ckpt) == {
            key for key in union_records if key[0] in network.processors
        }
        assert _stored_links(store, ckpt) == {
            link for link in union_links if network.link_sources(*link)
        }
        _assert_image_matches(store, network)
        daemon.close()

        restored, report = HealerDaemon.restore(db)
        assert report.converged and report.audit_clean and report.verified, report
        restored.close()

    def test_failed_checkpoint_keeps_the_pumps_applied_marks(self, tmp_path, monkeypatch):
        """A checkpoint that fails inside ``pump`` rolls back only itself: the
        ops the pump applied before it keep their apply ranks on disk, the
        stored image is the previous one, and the checkpoint marks carry
        over, so the next checkpoint writes them and a restore certifies."""
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 40), seed=3, checkpoint_every=6, batch_window=3
        )
        daemon = HealerDaemon.create(db, config)
        store, network = daemon.store, daemon.healer.network
        client = daemon.client("c")
        rng = random.Random(3)

        def submit(ops):
            for _ in range(ops):
                client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))

        def on_disk(query):
            conn = sqlite3.connect(str(db))
            try:
                return conn.execute(query).fetchall()
            finally:
                conn.close()

        def image_rows():
            return [
                sorted(on_disk(f"SELECT * FROM {table}"))
                for table in ("checkpoints", "records", "links", "transcript")
            ]

        submit(6)
        daemon.pump()
        assert store.checkpoint_count() == 1
        image = image_rows()
        submit(8)
        # The pump applies two waves of three, then its checkpoint fails at
        # its first record row, mid-transaction.
        failing = _FaultyConnection(store._conn, fail_at=1, statement="INSERT INTO records")
        monkeypatch.setattr(store, "_conn", failing)
        with pytest.raises(_Crash):
            daemon.pump()
        monkeypatch.undo()
        assert failing.crashed and daemon.backlog == 2

        ranks = dict(on_disk("SELECT seq, apply_rank FROM journal WHERE applied=1"))
        assert len(ranks) == 12
        assert sorted(ranks.values()) == list(range(1, 13))
        assert max(ranks) == daemon._applied_seq
        assert image_rows() == image
        image = _image(store)
        image_records, image_links = _live_rows(image)
        records, links = _live_rows(network)
        marks = network.marks
        assert _changed(image_records, records) & records.keys() <= marks.records.keys()
        assert _changed(image_links, links) <= _marked_links(marks)
        assert image.processors.keys() - network.processors.keys() <= marks.removed

        daemon.pump()
        daemon.checkpoint()
        _assert_image_matches(store, network)
        daemon.close()
        restored, report = HealerDaemon.restore(db)
        assert report.suffix_ops == 0
        assert report.converged and report.audit_clean and report.verified, report
        restored.close()

    @pytest.mark.parametrize("preset", DELIVERY_PRESETS)
    def test_stored_image_equals_live_state(self, tmp_path, monkeypatch, preset):
        """After every checkpoint the stored image equals the live state:
        through churn, after a stale rejoin, and after a restore's
        re-anchoring checkpoint, and the restore certifies."""
        write = CheckpointStore.write_checkpoint
        compared = []

        def write_and_compare(store, healer, seq):
            ckpt_id = write(store, healer, seq)
            _assert_image_matches(store, healer.network)
            compared.append(ckpt_id)
            return ckpt_id

        monkeypatch.setattr(CheckpointStore, "write_checkpoint", write_and_compare)
        db = tmp_path / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("erdos_renyi", 100),
            fault=preset,
            seed=2,
            checkpoint_every=8,
            batch_window=3,
        )
        daemon = HealerDaemon.create(db, config)
        _drive(daemon, 32, seed=4, pump_every=4)
        assert len(compared) >= 4
        daemon.rejoin_stale()
        daemon.checkpoint()
        client = daemon.client("tail")
        rng = random.Random(8)
        for _ in range(3):
            client.delete(rng.choice(sorted(daemon._projected_alive, key=repr)))
        daemon.store.close()
        del daemon

        checkpoints = len(compared)
        restored, report = HealerDaemon.restore(db)
        assert report.converged and report.audit_clean and report.verified, report
        assert len(compared) == checkpoints + 1
        # The marks start once the network equals the image, so the
        # re-anchoring checkpoint rewrote only what the suffix changed.
        (kept,) = restored.store._conn.execute(
            "SELECT COUNT(*) FROM records WHERE ckpt_id < ?", (compared[-1],)
        ).fetchone()
        assert kept > 0
        restored.close()

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


def _crash_program(db, seed, crash_at=None):
    """A seeded run of two clients on ``power_law`` n=24: 12 inserts and
    deletes, a pump every 4 submissions and a checkpoint every 4 applied
    ops.  The store fails its ``crash_at``-th write statement as a kill
    would (the connection closes without committing) and the run stops
    there.  Returns the ops whose submission returned, as ``(seq, kind,
    node)``, and the write statements the run made."""
    config = ServiceConfig(
        graph=GraphSpec("power_law", 24), seed=seed, checkpoint_every=4, batch_window=3
    )
    daemon = HealerDaemon.create(db, config)
    connection = _FaultyConnection(daemon.store._conn, fail_at=crash_at, close=True)
    daemon.store._conn = connection
    clients = [daemon.client("a"), daemon.client("b")]
    rng = random.Random(seed)
    acknowledged = []
    try:
        for step in range(12):
            client = clients[step % 2]
            alive = sorted(daemon._projected_alive, key=repr)
            if rng.random() < 0.3:
                node, kind = 100 + step, "insert"
                seq = client.insert(node, rng.sample(alive, 2))
            else:
                node, kind = rng.choice(alive), "delete"
                seq = client.delete(node)
            acknowledged.append((seq, kind, node))
            if step % 4 == 3:
                daemon.pump()
        daemon.pump()
    except _Crash:
        pass
    finally:
        daemon.close()
    return acknowledged, connection.writes


class TestCrashPoints:
    def test_a_crash_at_any_write_loses_no_acknowledged_op(self, tmp_path):
        """Crash a seeded run at each of its write statements in turn: every
        journal append, applied mark and checkpoint statement.  Each time
        the restore certifies, every op whose submission returned is applied
        exactly once, and a second crash at the same statement restores to
        the same golden digest."""
        seed = 0
        _, writes = _crash_program(tmp_path / "full.db", seed)
        check = sqlite3.connect(str(tmp_path / "full.db"))
        assert check.execute("SELECT MAX(ckpt_id) FROM checkpoints").fetchone()[0] >= 2
        check.close()
        for crash_at in range(1, writes + 1):
            digests = []
            for attempt in range(2):
                db = tmp_path / f"crash{crash_at}-{attempt}.db"
                acknowledged, _ = _crash_program(db, seed, crash_at)
                restored, report = HealerDaemon.restore(db)
                try:
                    assert report.converged and report.audit_clean and report.verified, (
                        crash_at,
                        report,
                    )
                    journal = restored.store.journal_ops()
                    assert [(op.seq, op.kind, op.node) for op in journal] == acknowledged
                    assert restored.store.applied_len() == len(acknowledged)
                    ranks = [op.apply_rank for op in journal]
                    assert None not in ranks and len(set(ranks)) == len(ranks)
                    genesis = set(restored.store.genesis_graph())
                    inserted = {node for _, kind, node in acknowledged if kind == "insert"}
                    deleted = {node for _, kind, node in acknowledged if kind == "delete"}
                    assert restored.healer.deleted_nodes == deleted
                    assert restored.healer.alive_nodes == (genesis | inserted) - deleted
                    digests.append(
                        regen.digest(
                            {
                                "state": regen.state_parts(restored.healer),
                                "restart": dataclasses.asdict(report),
                                "ranks": ranks,
                            }
                        )
                    )
                finally:
                    restored.close()
            assert digests[0] == digests[1], crash_at


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

    @pytest.mark.parametrize(
        "samples, q, expected",
        [
            ([1.0, 2.0], 50, 1.0),
            ([float(v) for v in range(1, 7)], 50, 3.0),
            ([float(v) for v in range(1, 11)], 90, 9.0),
            ([float(v) for v in range(1, 101)], 99, 99.0),
            ([5.0, 1.0, 3.0], 0, 1.0),
            ([5.0, 1.0, 3.0], 100, 5.0),
            ([7.0], 99, 7.0),
            ([], 50, 0.0),
        ],
    )
    def test_percentile_is_nearest_rank(self, samples, q, expected):
        assert percentile(samples, q) == expected

    def test_checkpoint_time_and_rows(self):
        metrics = ServiceMetrics()
        metrics.record_checkpoint(12.5, 40, 9)
        metrics.record_checkpoint(2.25, 3, 1)
        snap = metrics.snapshot()
        assert snap["checkpoints_written"] == 2
        assert snap["checkpoint"] == {
            "last_ms": 2.25,
            "total_ms": 14.75,
            "last_record_rows": 3,
            "record_rows": 43,
            "last_link_rows": 1,
            "link_rows": 10,
        }

    def test_window_bounds_samples(self):
        metrics = ServiceMetrics(latency_window=4)
        for ms in range(10):
            metrics.record_insert(float(ms))
        assert metrics.snapshot()["latency_ms"]["samples"] == 4


# --------------------------------------------------------------------------- #
# generated daemon programs
# --------------------------------------------------------------------------- #
class DaemonMachine(RuleBasedStateMachine):
    """Random programs of submits, pumps, checkpoints, crash + restore and
    stale rejoins over one daemon.

    Every checkpoint, whoever writes it (a rule, a pump, a rejoin or a
    restore's re-anchoring), is followed by composing the stored image,
    genesis plus rows, and comparing it with the live state; every restore
    and every rejoin must certify.
    """

    @initialize(
        seed=st.integers(0, 5),
        fault=st.sampled_from(["lossless", "reorder", "delay"]),
        checkpoint_every=st.sampled_from([0, 4]),
    )
    def start(self, seed, fault, checkpoint_every):
        self.tmp = tempfile.TemporaryDirectory()
        self.db = Path(self.tmp.name) / "run.db"
        config = ServiceConfig(
            graph=GraphSpec("power_law", 24),
            fault=fault,
            seed=seed,
            checkpoint_every=checkpoint_every,
            batch_window=3,
        )
        self.daemon = None
        self.watch(HealerDaemon.create(self.db, config))
        self.next_id = 1000

    def watch(self, daemon):
        """Compare the image with the live state after each of ``daemon``'s checkpoints."""
        self.daemon = daemon
        store = daemon.store
        write = store.write_checkpoint

        def write_and_compare(healer, seq):
            ckpt = write(healer, seq)
            _assert_image_matches(store, healer.network)
            return ckpt

        store.write_checkpoint = write_and_compare

    def alive(self):
        return sorted(self.daemon._projected_alive, key=repr)

    @precondition(lambda machine: len(machine.alive()) > 8)
    @rule(data=st.data())
    def submit_delete(self, data):
        self.daemon.client("c").delete(data.draw(st.sampled_from(self.alive()), label="victim"))

    @rule(data=st.data(), degree=st.integers(0, 3))
    def submit_insert(self, data, degree):
        attach = data.draw(st.permutations(self.alive()), label="attach")[:degree]
        self.daemon.client("c").insert(self.next_id, attach)
        self.next_id += 1

    @rule()
    def pump(self):
        self.daemon.pump()

    @rule()
    def checkpoint(self):
        self.daemon.checkpoint()

    @rule()
    def crash_and_restore(self):
        """Close without a checkpoint (the backlog stays journalled), restore."""
        expected = set(self.daemon._projected_alive)
        self.daemon.close()
        self.daemon = None
        restored, report = HealerDaemon.restore(self.db)
        self.watch(restored)
        assert report.converged and report.audit_clean and report.verified, report
        assert set(restored.healer.alive_nodes) == expected
        # The restore's re-anchoring checkpoint (if it replayed a suffix)
        # ran before the watch: the image must match either way.
        _assert_image_matches(restored.store, restored.healer.network)

    @precondition(lambda machine: len(machine.alive()) > 8)
    @rule()
    def rejoin_stale(self):
        self.daemon.pump()
        report = self.daemon.rejoin_stale()
        assert report.converged and report.audit_clean and report.verified, report

    def teardown(self):
        if getattr(self, "daemon", None) is not None:
            self.daemon.close()
        if hasattr(self, "tmp"):
            self.tmp.cleanup()


# Derandomized, so tier-1 replays the same programs every run.
DaemonMachine.TestCase.settings = settings(
    derandomize=True, max_examples=30, stateful_step_count=10, deadline=None
)
TestDaemonPrograms = DaemonMachine.TestCase
