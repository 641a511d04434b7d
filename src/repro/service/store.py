"""Durable checkpoint store for the healer service (sqlite, schema-versioned).

One database file per service run, holding everything a crashed daemon
needs to come back: the service configuration, the genesis topology, an
append-only operation journal (every client-submitted insert/delete, with
an ``applied`` watermark), and one live *image* of the distributed state —
the Table 1 per-edge records of every processor, the healed graph's
sourced links and the accountability transcript — under the header of the
checkpoint that last brought it up to date (journal watermark and census).

The genesis is the image's base, and the rows hold only what changed
since: one row per Table 1 record and one per link.  The network notes
every record written, every link whose sources were written (with the
sources it had before) and every processor removed (``Network.marks``,
started by the daemon after its genesis bootstrap), and
:meth:`CheckpointStore.write_checkpoint` rewrites exactly those rows but
the links whose sources ended where they were, in one transaction that
also replaces the header.  A checkpoint therefore costs what changed since
the previous one, the first one included, and retention needs no policy:
the tables hold one image, never a copy per checkpoint, and a checkpoint
that fails mid-write rolls back to the previous image intact.

:meth:`CheckpointStore.load_image` reads the image back onto a network
bootstrapped from the genesis: processors missing from the header's alive
list go, a record row overrides that one record, a link row sets that one
link's sources, and every other record and link is the one genesis made.
That composition is exact because records are never removed, and only
``("rt", ...)`` link sources ever are: a link with a real-edge source, as
every genesis link has, exists until one of its endpoints dies.  A
processor's image alone is its record rows over the records ``Init`` made
(:meth:`CheckpointStore.load_records` with an owner reads just those rows).

The store is plain sqlite in WAL mode (journal appends survive a ``kill
-9`` between checkpoints), and every value that names a node or port goes
through an explicit typed codec rather than pickle, so a checkpoint written
by one process version is readable by another and the on-disk format is
inspectable with the sqlite CLI.  Encoded node ids are also the image's row
keys (a rewrite finds a record's or a link's row by its encoded ids), so the
codec's bytes are part of the schema: the writer's direct text encoder
(``_dumps``) must write exactly what :func:`encode_value` plus the compact
JSON encoder write.  Decoding goes through a *memo*, a dict that maps each
node id and each :class:`Port` decoded so far to the one object standing
for it: every reader takes one (a fresh one per call by default), and a
restore hands the same memo to all its reads, so the state it rebuilds
holds one object per distinct id and per distinct port, however many
records, links and journal entries name it.

A schema v2 store holds a complete image and a v3 store every row of each
processor some checkpoint rewrote; both are valid v4 images, so they open
with no row rewritten.  A schema v1 store (a full image per checkpoint,
none ever deleted) is migrated when it is opened: its latest checkpoint, a
complete image, is kept and every older one dropped.

The restore contract (see :meth:`repro.service.daemon.HealerDaemon.restore`)
splits the journal at the checkpoint's sequence number: the prefix is
replayed oracle-only (the engine is deterministic given the op sequence),
the distributed state comes from the genesis plus the checkpoint rows,
and the suffix — everything the crash interrupted — replays through the
full message-native path.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from ..core.errors import ConfigurationError
from ..core.graph_fill import fill_owned_graph
from ..core.ports import NodeId, Port, sorted_nodes
from ..distributed.network import Network
from ..distributed.processor import EdgeRecord

__all__ = ["CheckpointStore", "CheckpointInfo", "JournalOp", "SCHEMA_VERSION"]

#: Bumped on any incompatible change to the table layout, the value codec or
#: what the image means; opening a store written under a different version
#: refuses loudly instead of mis-decoding state (v1 and v2 stores are
#: upgraded, see the module docstring).  v3: the image may be partial, the
#: genesis is its base.  v4: rows stand per record and per link.
SCHEMA_VERSION = 4

#: Table 1 record fields in checkpoint payload order (the ``EdgeRecord``
#: declaration order — reordering its fields is a schema change).
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(EdgeRecord))
#: A record's field values in payload order, read in one C call.
_record_values = attrgetter(*_RECORD_FIELDS)


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


def decode_value(payload: object, memo: Optional[Dict[object, object]] = None) -> object:
    """Inverse of :func:`encode_value`.

    Each id and :class:`Port` decoded is looked up in ``memo`` (a fresh
    dict when none is given) and the object already there returned, so
    values decoded through one memo share one object per distinct id and
    per distinct port.  The memo's keys are the ids themselves (ints and
    strings never compare equal) and the ports, which compare and hash like
    their plain pairs; no plain pair is ever put in it.
    """
    if memo is None:
        memo = {}
    if payload is None or payload is True or payload is False:
        return payload
    tag = payload[0]
    if tag == "i" or tag == "s":
        value = payload[1]
        return memo.setdefault(value, value)
    if tag == "P":
        pair = (decode_value(payload[1], memo), decode_value(payload[2], memo))
        port = memo.get(pair)
        if port is None:
            port = Port(*pair)
            memo[port] = port
        return port
    if tag == "t":
        return tuple(decode_value(item, memo) for item in payload[1])
    if tag == "f":
        return frozenset(decode_value(item, memo) for item in payload[1])
    raise ConfigurationError(f"unknown codec tag {tag!r} in stored value")


#: The compact JSON encoder that defines the stored text of a value:
#: ``_ENCODE(encode_value(value))``.  ``json.dumps(..., separators=...)``
#: would build a new encoder per call.
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode

#: JSON's own ASCII string encoder (the one ``_ENCODE`` uses), quotes included.
_encode_str = json.encoder.encode_basestring_ascii


def _dumps_tuple(value: tuple) -> str:
    return '["t",[' + ",".join(map(_dumps, value)) + "]]"


def _dumps_frozenset(value: frozenset) -> str:
    # encode_value sorts the members by their json.dumps text, whose ", "
    # separators differ from the compact text only by a space after each
    # separator comma.  Two texts' first difference lies past a common
    # prefix that both tokenize alike (no text is a prefix of another), so
    # the compact texts sort in the same order.
    return '["f",[' + ",".join(sorted(map(_dumps, value))) + "]]"


#: Direct writers for the exact types the protocol state holds.  Anything
#: else — subclasses, and values the codec refuses — takes the reference path.
_WRITERS = {
    type(None): lambda value: "null",
    bool: lambda value: "true" if value else "false",
    int: lambda value: f'["i",{value}]',
    str: lambda value: f'["s",{_encode_str(value)}]',
    Port: lambda value: f'["P",{_dumps(value[0])},{_dumps(value[1])}]',
    tuple: _dumps_tuple,
    frozenset: _dumps_frozenset,
}


def _dumps(value: object) -> str:
    """The stored text of ``value``, written in one pass.

    Byte for byte ``_ENCODE(encode_value(value))`` — encoded ids are row
    keys — without building the tagged lists first.
    """
    writer = _WRITERS.get(type(value))
    if writer is None:
        return _ENCODE(encode_value(value))
    return writer(value)


def _record_payload(record: EdgeRecord) -> str:
    """A record row's payload: its field values in ``_RECORD_FIELDS`` order."""
    return "[" + ",".join(map(_dumps, _record_values(record))) + "]"


def _loads(text: str, memo: Optional[Dict[object, object]] = None) -> object:
    return decode_value(json.loads(text), memo)


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
    """Header of the checkpoint that last brought the stored image up to date."""

    ckpt_id: int
    #: Highest applied journal sequence number the checkpoint covers.
    seq: int
    n_ever: int
    alive: Tuple[NodeId, ...]
    quarantined: Tuple[NodeId, ...]


#: Created first: the constructor reads the schema version before it touches
#: any other table.
_META_TABLE = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

#: ``checkpoints`` keeps only the latest header.  ``records``, ``links`` and
#: ``transcript`` are the live image: one row per Table 1 record and per
#: sourced link changed since genesis, and one per accusation, each stamped
#: with the ``ckpt_id`` of the checkpoint that wrote it.  A processor's
#: record rows are in its record order by rowid.  A link row orders its
#: endpoints by ``node_order_key``; rows migrated from v1 keep their stored
#: order, which no read or delete depends on (a rewrite matches either order).
_TABLES = """
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
CREATE TABLE IF NOT EXISTS links (
    ckpt_id INTEGER NOT NULL,
    u TEXT NOT NULL,
    v TEXT NOT NULL,
    sources TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS transcript (
    ckpt_id INTEGER NOT NULL,
    accused TEXT NOT NULL,
    reporter TEXT NOT NULL,
    reason TEXT NOT NULL,
    round INTEGER NOT NULL
);
"""

#: The row keys.  Kept apart from ``_TABLES``: a v1 store holds one image per
#: checkpoint, so these unique indexes can only be built after its migration.
_INDEXES = (
    "CREATE UNIQUE INDEX IF NOT EXISTS records_key ON records (processor, neighbor)",
    "CREATE UNIQUE INDEX IF NOT EXISTS links_key ON links (u, v)",
)

#: A record row written in place: an existing row keeps its rowid (its place
#: in the processor's record order), a new one goes last.
_UPSERT_RECORD = (
    "INSERT INTO records (ckpt_id, processor, neighbor, payload) VALUES (?, ?, ?, ?) "
    "ON CONFLICT (processor, neighbor) DO UPDATE SET "
    "ckpt_id = excluded.ckpt_id, payload = excluded.payload"
)


class CheckpointStore:
    """The healer service's durable state: journal + structured checkpoints.

    A store is opened either *fresh* (:meth:`initialize` writes the schema
    version, the service configuration and the genesis topology) or for
    *recovery* (the constructor validates the schema version, upgrades a
    v1, v2 or v3 store, and the accessors read everything back; a
    constructor that raises closes its connection).  A journal append
    commits at once — the journal is the crash-safety boundary, so an op
    acknowledged to a client is an op the restore will replay.  An applied
    mark waits for :meth:`commit`, and a checkpoint is its own transaction.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Link rows the last :meth:`write_checkpoint` rewrote or deleted.
        self.last_link_rows = 0
        self._conn = sqlite3.connect(str(self.path))
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(_META_TABLE)
            existing = self._meta("schema_version")
            if existing == "1":
                self._migrate_v1()
            elif existing in ("2", "3"):
                # A complete v2 image, or a v3 image of whole processors, is a
                # valid v4 image as it stands.  v4 reads no link by its v column.
                with self._conn:
                    self._conn.execute("DROP INDEX IF EXISTS links_v")
                    self._set_meta("schema_version", str(SCHEMA_VERSION))
            elif existing is not None and int(existing) != SCHEMA_VERSION:
                raise ConfigurationError(
                    f"checkpoint store {self.path} was written under schema "
                    f"v{existing}; this build reads v{SCHEMA_VERSION}"
                )
            self._conn.executescript(_TABLES)
            for statement in _INDEXES:
                self._conn.execute(statement)
            self._conn.commit()
        except BaseException:
            self._conn.close()
            raise

    def _migrate_v1(self) -> None:
        """Upgrade a v1 store in place, in one transaction.

        v1 kept a full image per checkpoint.  The latest one is complete on
        its own, so it becomes the live image and every older checkpoint's
        rows go; then v1's per-checkpoint indexes give way to the row keys.
        """
        conn = self._conn
        with conn:
            (latest,) = conn.execute("SELECT MAX(ckpt_id) FROM checkpoints").fetchone()
            conn.execute("DELETE FROM checkpoints WHERE ckpt_id IS NOT ?", (latest,))
            for table in ("records", "links", "transcript"):
                conn.execute(f"DELETE FROM {table} WHERE ckpt_id IS NOT ?", (latest,))
                conn.execute(f"DROP INDEX IF EXISTS idx_{table}_ckpt")
            for statement in _INDEXES:
                conn.execute(statement)
            self._set_meta("schema_version", str(SCHEMA_VERSION))

    def close(self) -> None:
        self._conn.close()

    @contextmanager
    def read_snapshot(self) -> Iterator[None]:
        """Run the enclosed reads in one read transaction.

        In WAL mode every read inside it sees the store as of the first
        one, whatever another connection commits meanwhile, so a restore
        reads one consistent image (header, journal and rows) even from a
        store a live daemon is checkpointing.  Nothing inside may write;
        the transaction ends, raising or not, when the block does.
        """
        self._conn.execute("BEGIN")
        try:
            yield
        finally:
            self._conn.rollback()

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
        # Each node is encoded once: an edge row holds its ends' node texts.
        texts = {node: _dumps(node) for node in genesis.nodes}
        self._conn.executemany(
            "INSERT INTO genesis_nodes (node) VALUES (?)", [(text,) for text in texts.values()]
        )
        self._conn.executemany(
            "INSERT INTO genesis_edges (u, v) VALUES (?, ?)",
            [(texts[u], texts[v]) for u, v in genesis.edges],
        )
        self._conn.commit()

    def config_json(self) -> Dict[str, object]:
        raw = self._meta("config")
        if raw is None:
            raise ConfigurationError(f"store {self.path} holds no service config")
        return json.loads(raw)

    def genesis_graph(self, memo: Optional[Dict[object, object]] = None) -> nx.Graph:
        """The genesis topology, its nodes and edges in the order they were stored.

        The order is the bootstrap's: it sets each processor's record order
        and the order its links were sourced, so both reads follow rowid.
        Ids are decoded through ``memo`` (see :func:`decode_value`), so an
        edge's ends are the objects its nodes are.
        """
        if memo is None:
            memo = {}
        nodes = [
            _loads(node, memo)
            for (node,) in self._conn.execute("SELECT node FROM genesis_nodes ORDER BY rowid")
        ]
        edges = self._conn.execute("SELECT u, v FROM genesis_edges ORDER BY rowid")
        graph = nx.Graph()
        fill_owned_graph(graph, nodes, ((_loads(u, memo), _loads(v, memo)) for u, v in edges))
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
        """Record that op ``seq`` was applied, ``apply_rank``-th; not committed.

        The caller commits (:meth:`commit`) before any checkpoint that
        covers the op: a checkpoint that fails rolls back its own
        transaction, and that must not take the op's rank with it (the
        restore replays its prefix in rank order).
        """
        self._conn.execute(
            "UPDATE journal SET applied=1, latency_ms=?, apply_rank=? WHERE seq=?",
            (latency_ms, apply_rank, seq),
        )

    def commit(self) -> None:
        """Make the applied marks written since the last commit durable."""
        self._conn.commit()

    def journal_ops(
        self,
        after: int = 0,
        until: Optional[int] = None,
        order: str = "seq",
        memo: Optional[Dict[object, object]] = None,
    ) -> List[JournalOp]:
        """Journalled ops with ``after < seq <= until``, their ids decoded
        through ``memo`` (see :func:`decode_value`).

        ``order="seq"`` returns submission order; ``order="rank"`` returns
        engine-application order (only meaningful for fully-applied ranges
        — the checkpoint prefix).
        """
        if order not in ("seq", "rank"):
            raise ConfigurationError(f"unknown journal order {order!r}")
        if memo is None:
            memo = {}
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
                node=_loads(node, memo),
                attach=tuple(_loads(attach, memo)),
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
        """Bring the stored image up to the healer's state; returns the new id.

        ``healer`` is a :class:`~repro.distributed.DistributedForgivingGraph`
        at a quiescent point (between adversarial moves); ``seq`` is the
        highest applied journal sequence number the state reflects.  Its
        network must keep checkpoint marks (``network.marks``) started where
        it equalled the stored image — a network that keeps none raises
        :class:`ConfigurationError`.

        Exactly the marked rows are rewritten: each marked record's row is
        written in place (a new one after its processor's other rows), each
        marked link whose sources differ from those its mark recorded (the
        image's) has its row deleted and written again if the link still has
        sources, and a removed processor's record rows go.  Every other row
        stays as an earlier checkpoint wrote it.  The new header replaces the
        superseded one and the accusations beyond those already stored are
        appended, all in one transaction: a checkpoint that fails mid-write
        rolls back and leaves the previous image intact, and the marks are
        drained only once the transaction has committed.
        """
        network = healer.network
        marks = network.marks
        if marks is None:
            raise ConfigurationError(
                "the network keeps no checkpoint marks, so a checkpoint cannot "
                "tell what changed; start them (Network.start_marks) where the "
                "network equals the stored image"
            )
        processors = network.processors
        conn = self._conn
        with conn:
            ckpt = int(
                conn.execute(
                    "INSERT INTO checkpoints (seq, n_ever, alive, quarantined) "
                    "VALUES (?, ?, ?, ?)",
                    (
                        seq,
                        network.n_ever,
                        _dumps(tuple(processors)),
                        _dumps(tuple(network.quarantined)),
                    ),
                ).lastrowid
            )
            conn.execute("DELETE FROM checkpoints WHERE ckpt_id < ?", (ckpt,))
            conn.executemany(
                "DELETE FROM records WHERE processor=?",
                [(_dumps(node),) for node in marks.removed],
            )
            record_rows = []
            for owner, neighbor in marks.records:
                processor = processors.get(owner)
                if processor is not None:
                    record = processor.record(neighbor)
                    record_rows.append((ckpt, _dumps(owner), _dumps(neighbor), _record_payload(record)))
            conn.executemany(_UPSERT_RECORD, record_rows)
            pairs = []
            link_rows = []
            for u, v, keys in network.changed_links():
                u, v = sorted_nodes((u, v))
                stored_u, stored_v = _dumps(u), _dumps(v)
                pairs += ((stored_u, stored_v), (stored_v, stored_u))
                if keys:
                    link_rows.append(
                        (ckpt, stored_u, stored_v, _dumps(tuple(sorted(keys, key=repr))))
                    )
            conn.executemany("DELETE FROM links WHERE u=? AND v=?", pairs)
            conn.executemany(
                "INSERT INTO links (ckpt_id, u, v, sources) VALUES (?, ?, ?, ?)", link_rows
            )
            (stored,) = conn.execute("SELECT COUNT(*) FROM transcript").fetchone()
            conn.executemany(
                "INSERT INTO transcript (ckpt_id, accused, reporter, reason, round) "
                "VALUES (?, ?, ?, ?, ?)",
                [
                    (ckpt, _dumps(a.accused), _dumps(a.reporter), a.reason, a.round)
                    for a in network.transcript.accusations[stored:]
                ],
            )
        marks.clear()
        self.last_link_rows = len(pairs) // 2
        return ckpt

    def latest_checkpoint(
        self, memo: Optional[Dict[object, object]] = None
    ) -> Optional[CheckpointInfo]:
        """The latest header, its ids decoded through ``memo`` (see
        :func:`decode_value`), or ``None`` before the first checkpoint."""
        row = self._conn.execute(
            "SELECT ckpt_id, seq, n_ever, alive, quarantined FROM checkpoints "
            "ORDER BY ckpt_id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        if memo is None:
            memo = {}
        ckpt_id, seq, n_ever, alive, quarantined = row
        return CheckpointInfo(
            ckpt_id=ckpt_id,
            seq=seq,
            n_ever=n_ever,
            alive=tuple(_loads(alive, memo)),
            quarantined=tuple(_loads(quarantined, memo)),
        )

    def checkpoint_count(self) -> int:
        """Checkpoints written over the store's life: the latest ``ckpt_id``
        (AUTOINCREMENT never reuses one, and the latest header is kept)."""
        (latest,) = self._conn.execute("SELECT MAX(ckpt_id) FROM checkpoints").fetchone()
        return int(latest or 0)

    def load_image(
        self,
        network: Network,
        ckpt: CheckpointInfo,
        memo: Optional[Dict[object, object]] = None,
    ) -> None:
        """Turn ``network``, bootstrapped from :meth:`genesis_graph`, into the image.

        The image is the genesis plus the rows.  Processors missing from the
        header's alive list go, with their links, and those added since
        genesis are created.  Each record row is written over that one
        record through :meth:`~repro.distributed.processor.Processor.ensure_edge`,
        in row order, so a processor keeps its records in their live order
        and only records with a row are built; each link row gives that
        link exactly its sources.  Every other record and link stays as the
        bootstrap made it (a record as ``Init`` made it, held as ``None``),
        which is exact: records are never removed, and only ``("rt", ...)``
        link sources ever are, so a genesis link without a row still holds
        just its real-edge source, or went with a dead endpoint.  The
        header's quarantine set and the stored accusations (see
        :meth:`load_transcript`) complete the image.  Every row is decoded
        through ``memo`` (see :func:`decode_value`): given the one the
        genesis and the header were read through, the image names each id
        and port with the bootstrap's object.
        The census is left to the caller: it comes from the oracle's journal
        replay.
        """
        if memo is None:
            memo = {}
        alive = set(ckpt.alive)
        for node in [node for node in network.processors if node not in alive]:
            network.remove_processor(node)
        for node in ckpt.alive:
            network.add_processor(node)
        for owner, rows in self.load_records(memo=memo).items():
            processor = network.processors[owner]
            for neighbor, fields in rows.items():
                record = processor.ensure_edge(neighbor)
                for name, value in fields.items():
                    setattr(record, name, value)
        network.replace_link_sources(self.load_links(memo))
        network.quarantined = set(ckpt.quarantined)
        for accused, reporter, reason, round_ in self.load_transcript(memo):
            network.transcript.record(
                accused=accused, reporter=reporter, reason=reason, evidence=(), round=round_
            )

    def load_records(
        self,
        owner: Optional[NodeId] = None,
        memo: Optional[Dict[object, object]] = None,
    ) -> Dict[NodeId, Dict[NodeId, Dict[str, object]]]:
        """The image's record rows: ``{processor: {neighbor: fields}}``.

        Only the records a checkpoint rewrote since genesis have rows
        (:meth:`load_image` composes the rest from the genesis); each
        processor's come in row order, which is its record order.  Given an
        ``owner``, only that processor's rows are read: its image is those
        rows over the records ``Init`` made.  Ids and ports are decoded
        through ``memo`` (see :func:`decode_value`).
        """
        if memo is None:
            memo = {}
        if owner is None:
            rows = self._conn.execute(
                "SELECT processor, neighbor, payload FROM records ORDER BY rowid"
            )
        else:
            rows = self._conn.execute(
                "SELECT processor, neighbor, payload FROM records WHERE processor=? "
                "ORDER BY rowid",
                (_dumps(owner),),
            )
        out: Dict[NodeId, Dict[NodeId, Dict[str, object]]] = {}
        for node, neighbor, payload in rows:
            fields = {
                name: decode_value(value, memo)
                for name, value in zip(_RECORD_FIELDS, json.loads(payload))
            }
            out.setdefault(_loads(node, memo), {})[_loads(neighbor, memo)] = fields
        return out

    def load_links(self, memo: Optional[Dict[object, object]] = None) -> Dict[frozenset, Set[Tuple]]:
        """The image's link rows in the ``replace_link_sources`` wire format:
        every sourced link whose sources changed since genesis, its ids and
        ports decoded through ``memo`` (see :func:`decode_value`)."""
        if memo is None:
            memo = {}
        out: Dict[frozenset, Set[Tuple]] = {}
        for u, v, sources in self._conn.execute("SELECT u, v, sources FROM links"):
            out[frozenset((_loads(u, memo), _loads(v, memo)))] = set(_loads(sources, memo))
        return out

    def load_transcript(
        self, memo: Optional[Dict[object, object]] = None
    ) -> List[Tuple[NodeId, NodeId, str, int]]:
        """The image's accusations, in order, as ``(accused, reporter, reason, round)``.

        Message evidence does not round-trip the store (evidence tuples hold
        live :class:`Message` objects); restored accusations carry empty
        evidence, which preserves the verdicts and the quarantine set — the
        durable part of accountability.  Ids are decoded through ``memo``
        (see :func:`decode_value`).
        """
        if memo is None:
            memo = {}
        return [
            (_loads(accused, memo), _loads(reporter, memo), reason, round_)
            for accused, reporter, reason, round_ in self._conn.execute(
                "SELECT accused, reporter, reason, round FROM transcript ORDER BY rowid"
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
