"""Durable checkpoint store for the healer service (sqlite, schema-versioned).

One database file per service run, holding everything a crashed daemon
needs to come back: the service configuration, the genesis topology, an
append-only operation journal (every client-submitted insert/delete, with
an ``applied`` watermark), and periodic structured checkpoints — the Table
1 per-edge records of every processor, the healed graph's sourced links,
the accountability transcript and the census.  The store is plain sqlite in
WAL mode (journal appends survive a ``kill -9`` between checkpoints), and
every value that names a node or port goes through an explicit typed codec
rather than pickle, so a checkpoint written by one process version is
readable by another and the on-disk format is inspectable with the sqlite
CLI.

The restore contract (see :meth:`repro.service.daemon.HealerDaemon.restore`)
splits the journal at the checkpoint's sequence number: the prefix is
replayed oracle-only (the engine is deterministic given the op sequence),
the distributed state comes from the checkpoint tables verbatim, and the
suffix — everything the crash interrupted — replays through the full
message-native path.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..core.errors import ConfigurationError
from ..core.ports import NodeId, Port
from ..distributed.processor import EdgeRecord

__all__ = ["CheckpointStore", "CheckpointInfo", "JournalOp", "SCHEMA_VERSION"]

#: Bumped on any incompatible change to the table layout or the value codec;
#: opening a store written under a different version refuses loudly instead
#: of mis-decoding state.
SCHEMA_VERSION = 1

#: Table 1 record fields in checkpoint payload order (the ``EdgeRecord``
#: declaration order — reordering its fields is a schema change).
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(EdgeRecord))


# --------------------------------------------------------------------------- #
# value codec: node identifiers, ports and link-source keys as tagged JSON
# --------------------------------------------------------------------------- #
def encode_value(value: object) -> object:
    """Encode a node/port-bearing value as tagged, JSON-safe data.

    Covers exactly the shapes the protocol state contains: ``None``, bools,
    ints, strings, :class:`Port`, tuples (link-source keys such as
    ``("rt", Port, Port)``) and frozensets (``("real", frozenset((u, v)))``).
    Anything else — an exotic user-defined node identifier — raises
    :class:`ConfigurationError`; durability requires representable ids.
    """
    if value is None or value is True or value is False:
        return value
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, Port):
        return ["P", encode_value(value.processor), encode_value(value.neighbor)]
    if isinstance(value, tuple):
        return ["t", [encode_value(item) for item in value]]
    if isinstance(value, frozenset):
        items = [encode_value(item) for item in value]
        items.sort(key=json.dumps)
        return ["f", items]
    raise ConfigurationError(
        f"cannot persist value {value!r} of type {type(value).__name__}; "
        "the service store supports int/str node identifiers, Ports, tuples "
        "and frozensets"
    )


def decode_value(payload: object) -> object:
    """Inverse of :func:`encode_value`."""
    if payload is None or payload is True or payload is False:
        return payload
    tag = payload[0]
    if tag == "i":
        return payload[1]
    if tag == "s":
        return payload[1]
    if tag == "P":
        return Port(decode_value(payload[1]), decode_value(payload[2]))
    if tag == "t":
        return tuple(decode_value(item) for item in payload[1])
    if tag == "f":
        return frozenset(decode_value(item) for item in payload[1])
    raise ConfigurationError(f"unknown codec tag {tag!r} in stored value")


def _dumps(value: object) -> str:
    return json.dumps(encode_value(value), separators=(",", ":"))


def _loads(text: str) -> object:
    return decode_value(json.loads(text))


@dataclass(frozen=True)
class JournalOp:
    """One client-submitted operation, as recorded in the journal.

    ``apply_rank`` is the *engine application order*: inside a
    ``delete_batch`` wave the oracle deletes victims in admission order,
    which may differ from submission order — and since the healed graph
    depends on deletion order, the restore's oracle prefix replay must
    follow ranks, not sequence numbers.  ``None`` until the op is applied.
    """

    seq: int
    client: str
    kind: str  # "insert" | "delete"
    node: NodeId
    attach: Tuple[NodeId, ...] = ()
    apply_rank: Optional[int] = None


@dataclass(frozen=True)
class CheckpointInfo:
    """Header row of one checkpoint (the state tables hang off ``ckpt_id``)."""

    ckpt_id: int
    #: Highest applied journal sequence number the checkpoint covers.
    seq: int
    n_ever: int
    alive: Tuple[NodeId, ...]
    quarantined: Tuple[NodeId, ...]


_TABLES = """
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


class CheckpointStore:
    """The healer service's durable state: journal + structured checkpoints.

    A store is opened either *fresh* (:meth:`initialize` writes the schema
    version, the service configuration and the genesis topology) or for
    *recovery* (the constructor validates the schema version and the
    accessors read everything back).  All writes commit immediately — the
    journal is the crash-safety boundary, so an op acknowledged to a client
    is an op the restore will replay.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._conn = sqlite3.connect(str(self.path))
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.executescript(_TABLES)
        self._conn.commit()
        existing = self._meta("schema_version")
        if existing is not None and int(existing) != SCHEMA_VERSION:
            raise ConfigurationError(
                f"checkpoint store {self.path} was written under schema "
                f"v{existing}; this build reads v{SCHEMA_VERSION}"
            )

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------------ #
    # meta
    # ------------------------------------------------------------------ #
    def _meta(self, key: str) -> Optional[str]:
        row = self._conn.execute("SELECT value FROM meta WHERE key=?", (key,)).fetchone()
        return None if row is None else row[0]

    def _set_meta(self, key: str, value: str) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)", (key, value)
        )

    @property
    def initialized(self) -> bool:
        return self._meta("schema_version") is not None

    def initialize(self, config_json: Dict[str, object], genesis: nx.Graph) -> None:
        """Record the schema version, service config and genesis topology."""
        if self.initialized:
            raise ConfigurationError(
                f"checkpoint store {self.path} is already initialized; one "
                "database holds one service run"
            )
        self._set_meta("schema_version", str(SCHEMA_VERSION))
        self._set_meta("config", json.dumps(config_json))
        self._conn.executemany(
            "INSERT INTO genesis_nodes (node) VALUES (?)",
            [(_dumps(node),) for node in genesis.nodes],
        )
        self._conn.executemany(
            "INSERT INTO genesis_edges (u, v) VALUES (?, ?)",
            [(_dumps(u), _dumps(v)) for u, v in genesis.edges],
        )
        self._conn.commit()

    def config_json(self) -> Dict[str, object]:
        raw = self._meta("config")
        if raw is None:
            raise ConfigurationError(f"store {self.path} holds no service config")
        return json.loads(raw)

    def genesis_graph(self) -> nx.Graph:
        graph = nx.Graph()
        for (node,) in self._conn.execute("SELECT node FROM genesis_nodes"):
            graph.add_node(_loads(node))
        for u, v in self._conn.execute("SELECT u, v FROM genesis_edges"):
            graph.add_edge(_loads(u), _loads(v))
        return graph

    # ------------------------------------------------------------------ #
    # journal
    # ------------------------------------------------------------------ #
    def append_op(
        self, client: str, kind: str, node: NodeId, attach: Sequence[NodeId] = ()
    ) -> int:
        """Durably record one submitted op; returns its sequence number."""
        if kind not in ("insert", "delete"):
            raise ConfigurationError(f"unknown journal op kind {kind!r}")
        cursor = self._conn.execute(
            "INSERT INTO journal (client, kind, node, attach) VALUES (?, ?, ?, ?)",
            (client, kind, _dumps(node), _dumps(tuple(attach))),
        )
        self._conn.commit()
        return int(cursor.lastrowid)

    def mark_applied(self, seq: int, latency_ms: float, apply_rank: int) -> None:
        self._conn.execute(
            "UPDATE journal SET applied=1, latency_ms=?, apply_rank=? WHERE seq=?",
            (latency_ms, apply_rank, seq),
        )
        self._conn.commit()

    def journal_ops(
        self, after: int = 0, until: Optional[int] = None, order: str = "seq"
    ) -> List[JournalOp]:
        """Journalled ops with ``after < seq <= until``.

        ``order="seq"`` returns submission order; ``order="rank"`` returns
        engine-application order (only meaningful for fully-applied ranges
        — the checkpoint prefix).
        """
        if order not in ("seq", "rank"):
            raise ConfigurationError(f"unknown journal order {order!r}")
        column = "seq" if order == "seq" else "apply_rank"
        rows = self._conn.execute(
            f"SELECT seq, client, kind, node, attach, apply_rank FROM journal "
            f"WHERE seq > ? AND seq <= ? ORDER BY {column}",
            (after, until if until is not None else 2**62),
        ).fetchall()
        return [
            JournalOp(
                seq=seq,
                client=client,
                kind=kind,
                node=_loads(node),
                attach=tuple(_loads(attach)),
                apply_rank=apply_rank,
            )
            for seq, client, kind, node, attach, apply_rank in rows
        ]

    def max_apply_rank(self) -> int:
        row = self._conn.execute("SELECT MAX(apply_rank) FROM journal").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def journal_len(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM journal").fetchone()[0])

    def applied_len(self) -> int:
        return int(
            self._conn.execute("SELECT COUNT(*) FROM journal WHERE applied=1").fetchone()[0]
        )

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #
    def write_checkpoint(self, healer, seq: int) -> int:
        """Persist the healer's distributed state as one checkpoint.

        ``healer`` is a :class:`~repro.distributed.DistributedForgivingGraph`
        at a quiescent point (between adversarial moves); ``seq`` is the
        highest applied journal sequence number the state reflects.  Table 1
        records, the sourced link table, the accountability transcript and
        the census all go in one transaction, so a crash mid-checkpoint
        leaves the previous checkpoint intact.
        """
        network = healer.network
        conn = self._conn
        cursor = conn.execute(
            "INSERT INTO checkpoints (seq, n_ever, alive, quarantined) VALUES (?, ?, ?, ?)",
            (
                seq,
                network.n_ever,
                _dumps(tuple(network.processors)),
                _dumps(tuple(network.quarantined)),
            ),
        )
        ckpt = int(cursor.lastrowid)
        record_rows = []
        for node_id, processor in network.processors.items():
            owner = _dumps(node_id)
            for neighbor, record in processor.edges.items():
                payload = [encode_value(getattr(record, name)) for name in _RECORD_FIELDS]
                record_rows.append(
                    (ckpt, owner, _dumps(neighbor), json.dumps(payload, separators=(",", ":")))
                )
        conn.executemany(
            "INSERT INTO records (ckpt_id, processor, neighbor, payload) VALUES (?, ?, ?, ?)",
            record_rows,
        )
        link_rows = []
        for link, keys in network.export_link_sources().items():
            u, v = tuple(link)
            link_rows.append((ckpt, _dumps(u), _dumps(v), _dumps(tuple(sorted(keys, key=repr)))))
        conn.executemany(
            "INSERT INTO links (ckpt_id, u, v, sources) VALUES (?, ?, ?, ?)", link_rows
        )
        conn.executemany(
            "INSERT INTO transcript (ckpt_id, accused, reporter, reason, round) "
            "VALUES (?, ?, ?, ?, ?)",
            [
                (ckpt, _dumps(a.accused), _dumps(a.reporter), a.reason, a.round)
                for a in network.transcript.accusations
            ],
        )
        conn.commit()
        return ckpt

    def latest_checkpoint(self) -> Optional[CheckpointInfo]:
        row = self._conn.execute(
            "SELECT ckpt_id, seq, n_ever, alive, quarantined FROM checkpoints "
            "ORDER BY ckpt_id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        ckpt_id, seq, n_ever, alive, quarantined = row
        return CheckpointInfo(
            ckpt_id=ckpt_id,
            seq=seq,
            n_ever=n_ever,
            alive=tuple(_loads(alive)),
            quarantined=tuple(_loads(quarantined)),
        )

    def checkpoint_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM checkpoints").fetchone()[0])

    def load_records(
        self, ckpt_id: int, processors: Optional[Iterable[NodeId]] = None
    ) -> Dict[NodeId, Dict[NodeId, Dict[str, object]]]:
        """Checkpointed Table 1 records: ``{processor: {neighbor: fields}}``.

        ``processors`` narrows the load (the stale-rejoin path reloads a
        single processor's records); ``None`` loads the whole checkpoint.
        """
        wanted: Optional[Set[str]] = (
            None if processors is None else {_dumps(node) for node in processors}
        )
        out: Dict[NodeId, Dict[NodeId, Dict[str, object]]] = {}
        for owner, neighbor, payload in self._conn.execute(
            "SELECT processor, neighbor, payload FROM records WHERE ckpt_id=?", (ckpt_id,)
        ):
            if wanted is not None and owner not in wanted:
                continue
            fields = {
                name: decode_value(value)
                for name, value in zip(_RECORD_FIELDS, json.loads(payload))
            }
            out.setdefault(_loads(owner), {})[_loads(neighbor)] = fields
        return out

    def load_links(self, ckpt_id: int) -> Dict[frozenset, Set[Tuple]]:
        """Checkpointed sourced links in the ``replace_link_sources`` wire format."""
        out: Dict[frozenset, Set[Tuple]] = {}
        for u, v, sources in self._conn.execute(
            "SELECT u, v, sources FROM links WHERE ckpt_id=?", (ckpt_id,)
        ):
            out[frozenset((_loads(u), _loads(v)))] = set(_loads(sources))
        return out

    def load_transcript(self, ckpt_id: int) -> List[Tuple[NodeId, NodeId, str, int]]:
        """Checkpointed accusations as ``(accused, reporter, reason, round)``.

        Message evidence does not round-trip the store (evidence tuples hold
        live :class:`Message` objects); restored accusations carry empty
        evidence, which preserves the verdicts and the quarantine set — the
        durable part of accountability.
        """
        return [
            (_loads(accused), _loads(reporter), reason, round_)
            for accused, reporter, reason, round_ in self._conn.execute(
                "SELECT accused, reporter, reason, round FROM transcript WHERE ckpt_id=?",
                (ckpt_id,),
            )
        ]

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def size_bytes(self) -> int:
        """On-disk footprint (main DB + WAL), for the metrics endpoint."""
        total = 0
        for suffix in ("", "-wal", "-shm"):
            candidate = Path(str(self.path) + suffix)
            if candidate.exists():
                total += candidate.stat().st_size
        return total
