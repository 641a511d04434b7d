"""The long-lived healer daemon: churn intake, checkpoints, crash-recover.

:class:`HealerDaemon` turns the batch-mode distributed healer into a
service.  Clients (:class:`ServiceClient`) submit insert/delete operations;
every submission is journalled durably *before* it is acknowledged, then
:meth:`HealerDaemon.pump` applies the backlog — consecutive deletions are
grouped into ``delete_batch`` admission waves (the concurrent path),
inserts ride individually — and periodically checkpoints the distributed
state (Table 1 records, sourced links, accountability transcript, census)
into the one live image :class:`~repro.service.store.CheckpointStore`
keeps.  The genesis is that image's base: the daemon starts the network's
checkpoint marks after its genesis bootstrap, so every checkpoint, the
first included, rewrites only the records written and the links whose
sources changed since the previous one.  A pump commits the applied marks
of its ops once before each checkpoint it writes and once at its end; each
submission commits on its own, since that commit is the client's
acknowledgement.

Crash-recover is real, twice over:

* **Process crash** — ``kill -9`` mid-churn loses nothing durable.
  :meth:`HealerDaemon.restore` bootstraps the healer from the stored
  genesis, replays the journal prefix up to the last checkpoint
  *oracle-only* on its engine (deterministic given the
  engine-application order the journal's ``apply_rank`` column records),
  turns the bootstrapped network into the stored image with the
  checkpoint rows, then replays the suffix — the ops the crash
  interrupted — through the full message-native path, and certifies the
  result (every suffix deletion converged, and the oracle check finds no
  divergence).

* **Stale-processor rejoin** — :meth:`HealerDaemon.rejoin_stale` restarts
  one repair participant from the latest checkpoint image *mid-repair*
  (its own record rows over the records ``Init`` made, read alone):
  the records it re-reads predate the repair it just took part in, which
  is exactly a digest divergence for the PR 5 gossip recovery to heal.
  The rollback is scoped to what the interrupted repair wrote (its helper
  assignment, ``rt_parent`` and ``representative`` rewires); the repair
  context itself survives the restart — a rejoiner that answers digest
  requests is how the protocol distinguishes a *stale* peer from a *dead*
  one (a rejoiner that lost its context entirely looks crashed, and
  recovery converges around it instead, the PR 5 crash tests' territory).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.errors import ConfigurationError
from ..core.ports import NodeId
from ..distributed.processor import EdgeRecord, init_record
from ..distributed.simulator import DistributedForgivingGraph
from .config import ServiceConfig
from .metrics import ServiceMetrics, StatusServer
from .store import CheckpointStore, JournalOp

__all__ = ["HealerDaemon", "ServiceClient", "RestartReport", "RejoinReport"]


@dataclass(frozen=True)
class RestartReport:
    """What a :meth:`HealerDaemon.restore` did and how it certified itself."""

    #: Journal seq of the checkpoint the restore loaded (0 = genesis only).
    checkpoint_seq: int
    #: Ops replayed oracle-only (the checkpoint prefix).
    prefix_ops: int
    #: Ops replayed through the full message-native path (the crash suffix).
    suffix_ops: int
    #: Every deletion of the suffix replay reported ``converged`` (its
    #: background recovery reached the fixed point); True for a suffix
    #: without deletions.
    converged: bool
    #: ``audit_reference()`` came back empty after the suffix replay: the
    #: divergences ``verify_consistency()`` raises on, listed, so this
    #: always equals ``verified``.
    audit_clean: bool
    #: ``verify_consistency()`` passed (records/links/census match the oracle).
    verified: bool


@dataclass(frozen=True)
class RejoinReport:
    """One stale-checkpoint rejoin healed through digest recovery."""

    victim: NodeId
    #: The participant that restarted from the stale checkpoint image
    #: (``None`` when the repair had no non-leader participant to restart).
    stale: Optional[NodeId]
    #: Records the stale restart actually rolled back.
    records_rolled_back: int
    converged: bool
    sweeps: int
    #: Digest-divergence re-instructions recovery had to send — non-zero
    #: when the rollback touched anything, this is the healing happening.
    retransmissions: int
    audit_clean: bool
    verified: bool


class ServiceClient:
    """One churn stream's handle on the daemon.

    Submissions validate against the *projected* state (current graph plus
    the not-yet-pumped backlog), journal durably, and return the journal
    sequence number — the client's receipt.  Nothing touches the healer
    until the daemon pumps.
    """

    def __init__(self, daemon: "HealerDaemon", name: str) -> None:
        self._daemon = daemon
        self.name = name

    def insert(self, node: NodeId, attach_to: Sequence[NodeId] = ()) -> int:
        return self._daemon.submit(self.name, "insert", node, attach_to)

    def delete(self, node: NodeId) -> int:
        return self._daemon.submit(self.name, "delete", node)


class HealerDaemon:
    """Event loop + durability around one :class:`DistributedForgivingGraph`.

    Build with :meth:`create` (fresh run: builds the genesis topology,
    initializes the store) or :meth:`restore` (crash recovery: loads the
    latest checkpoint and replays the journal).  The daemon is
    single-threaded by design — clients journal from any thread (sqlite
    serializes), but :meth:`pump` is the only thing that touches the
    healer, mirroring the one-adversary-move-at-a-time model.
    """

    def __init__(
        self,
        store: CheckpointStore,
        config: ServiceConfig,
        healer: DistributedForgivingGraph,
        *,
        applied_seq: int = 0,
        apply_rank: int = 0,
    ) -> None:
        self.store = store
        self.config = config
        self.healer = healer
        self.metrics = ServiceMetrics(latency_window=config.latency_window)
        self._applied_seq = applied_seq
        self._apply_rank = apply_rank
        self._pending: List[JournalOp] = []
        self._ops_since_checkpoint = 0
        #: Projected alive set = healer state + unpumped backlog effects,
        #: what submissions validate against.
        self._projected_alive: Set[NodeId] = set(healer.alive_nodes)
        self._status_server: Optional[StatusServer] = None
        #: Store counters mirrored on the daemon thread, so the status
        #: endpoint's server thread never touches the (thread-bound) sqlite
        #: connection.
        self._journal_len = store.journal_len()
        self._applied_len = store.applied_len()
        self._checkpoint_count = store.checkpoint_count()

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, db_path: Union[str, Path], config: ServiceConfig) -> "HealerDaemon":
        """Start a fresh run: build genesis, initialize the store.

        The checkpoint marks start after the genesis bootstrap, the stored
        image's base, so checkpoints write only what changed since."""
        genesis = config.graph.build(seed=config.seed)
        store = CheckpointStore(db_path)
        store.initialize(config.to_json(), genesis)
        healer = cls._build_healer(config, genesis)
        healer.network.start_marks()
        return cls(store, config, healer)

    @staticmethod
    def _build_healer(config: ServiceConfig, genesis) -> DistributedForgivingGraph:
        """The healer bootstrapped from ``genesis``, the stored image's base."""
        return DistributedForgivingGraph.from_graph(
            genesis, fault_schedule=config.fault.build(config.seed)
        )

    @classmethod
    def restore(
        cls, db_path: Union[str, Path]
    ) -> Tuple["HealerDaemon", RestartReport]:
        """Recover a crashed run from its store.

        The healer is bootstrapped from the stored genesis, the image's
        base.  The checkpoint prefix of the journal replays through that
        healer's engine only (in ``apply_rank`` order — the order the
        oracle originally saw), the checkpoint rows turn the bootstrapped
        network into the stored image
        (:meth:`~repro.service.store.CheckpointStore.load_image`), and the
        crash suffix replays through the full message-native path.  The
        restored daemon is certified before it is returned: every suffix
        deletion's recovery reached its fixed point, and the oracle check
        (:meth:`~repro.distributed.simulator.DistributedForgivingGraph.audit_reference`,
        run once) ties every record and link back to the oracle.  The
        checkpoint marks start once, where the network equals the image,
        before the suffix replay.  A restore that replayed a suffix writes a
        fresh checkpoint only when the replay converged and verified.

        A path that holds no file is refused without creating one, and a
        restore that raises closes the store it opened.
        """
        if not Path(db_path).is_file():
            raise ConfigurationError(f"no checkpoint store at {db_path} to restore")
        store = CheckpointStore(db_path)
        try:
            return cls._restore(store)
        except BaseException:
            store.close()
            raise

    @classmethod
    def _restore(cls, store: CheckpointStore) -> Tuple["HealerDaemon", RestartReport]:
        # Every read runs in one read transaction, so a checkpoint another
        # daemon commits meanwhile cannot mix its rows into the image; it
        # ends before the suffix replay's first write.
        with store.read_snapshot():
            if not store.initialized:
                raise ConfigurationError(f"store {store.path} holds no service run to restore")
            config = ServiceConfig.from_json(store.config_json())
            # Every read decodes through one memo, so the restored state holds
            # one object per node id and per port.
            memo: Dict[object, object] = {}
            genesis = store.genesis_graph(memo)
            healer = cls._build_healer(config, genesis)
            ckpt = store.latest_checkpoint(memo)
            # Without a checkpoint the genesis itself is the recovery point and
            # the whole journal is the suffix.
            prefix_count = checkpoint_seq = apply_rank = 0
            if ckpt is not None:
                # 1. Oracle prefix replay: the engine is deterministic given
                #    the engine-application order, which apply_rank recorded.
                engine = healer.engine
                prefix = store.journal_ops(until=ckpt.seq, order="rank", memo=memo)
                ever_ids = set(genesis.nodes)
                for op in prefix:
                    if op.kind == "insert":
                        engine.insert(op.node, attach_to=op.attach)
                        ever_ids.add(op.node)
                    else:
                        engine.delete(op.node)
                prefix_count = len(prefix)
                checkpoint_seq = ckpt.seq
                apply_rank = store.max_apply_rank()

                # 2. The distributed side: the genesis bootstrap plus the rows.
                network = healer.network
                store.load_image(network, ckpt, memo)
                network.set_census(engine.nodes_ever, ever_ids=ever_ids)
            # The network now equals the stored image (the bootstrap alone when
            # there is no checkpoint): nothing to rewrite.
            healer.network.start_marks()

            daemon = cls(
                store, config, healer, applied_seq=checkpoint_seq, apply_rank=apply_rank
            )
            suffix = store.journal_ops(after=checkpoint_seq, order="seq", memo=memo)
        daemon.metrics.record_restart()

        # 3. Full-path suffix replay: everything after the checkpoint goes
        #    back through submit-validation-free application (it was already
        #    validated when first journalled).  The pump also compacts the
        #    journal entries the prefix replay left.
        for op in suffix:
            daemon._enqueue(op)
        daemon.pump(checkpoint=False)

        # 4. Certification.  The restored healer's cost reports are exactly
        #    the suffix replay's, so they carry its convergence.
        converged = all(report.converged for report in daemon.healer.cost_reports)
        clean = not daemon.healer.audit_reference()
        report = RestartReport(
            checkpoint_seq=checkpoint_seq,
            prefix_ops=prefix_count,
            suffix_ops=len(suffix),
            converged=converged,
            audit_clean=clean,
            verified=clean,
        )
        if suffix and report.converged and report.verified:
            # Re-anchor durability at the certified state, so the *next*
            # crash replays from here instead of an ever-growing suffix.
            daemon.checkpoint()
        return daemon, report

    # ------------------------------------------------------------------ #
    # intake
    # ------------------------------------------------------------------ #
    def client(self, name: str) -> ServiceClient:
        return ServiceClient(self, name)

    def submit(
        self, client: str, kind: str, node: NodeId, attach: Sequence[NodeId] = ()
    ) -> int:
        """Validate against the projected state, journal durably, enqueue."""
        attach = tuple(dict.fromkeys(attach))
        if kind == "insert":
            # An identifier is spent once a processor has had it (every
            # node the engine has seen, alive or deleted) or the backlog
            # names it: applying the insert would raise in every pump and
            # every restore of this store.
            if self.healer.network.ever_had_processor(node) or any(
                op.node == node for op in self._pending
            ):
                raise ConfigurationError(
                    f"cannot insert {node!r}: the identifier is already in use"
                )
            missing = [a for a in attach if a not in self._projected_alive]
            if missing:
                raise ConfigurationError(
                    f"cannot insert {node!r}: attach targets {missing} are not alive"
                )
        elif kind == "delete":
            if node not in self._projected_alive:
                raise ConfigurationError(f"cannot delete {node!r}: not alive")
            if len(self._projected_alive) <= 2:
                raise ConfigurationError(
                    "cannot delete: the service keeps at least 2 survivors"
                )
        else:
            raise ConfigurationError(f"unknown op kind {kind!r}")
        seq = self.store.append_op(client, kind, node, attach)
        self._journal_len += 1
        self._enqueue(JournalOp(seq=seq, client=client, kind=kind, node=node, attach=attach))
        return seq

    def _enqueue(self, op: JournalOp) -> None:
        """Add ``op`` to the backlog and project its effect."""
        self._pending.append(op)
        if op.kind == "insert":
            self._projected_alive.add(op.node)
        else:
            self._projected_alive.discard(op.node)

    @property
    def backlog(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------ #
    # the event loop body
    # ------------------------------------------------------------------ #
    def pump(self, checkpoint: bool = True) -> int:
        """Apply the whole backlog; returns the number of ops applied.

        Consecutive deletions (up to ``config.batch_window``) group into
        one ``delete_batch`` call — the concurrent admission path, whose
        per-victim reports carry the background anti-entropy ledgers the
        metrics fold in (including the silent fixed-point probe).  When
        ``checkpoint`` is left on, a checkpoint lands every
        ``config.checkpoint_every`` applied ops.

        Durability: the applied marks (``mark_applied``) commit together,
        once before each checkpoint (see :meth:`checkpoint`) and once when
        the backlog is done.  A crash in between loses only marks of ops
        past the last checkpoint, which the restore replays as its suffix.

        Memory: the engine's journals are compacted once the backlog is
        done, so a pump leaves none of their entries behind.
        """
        applied = 0
        while self._pending:
            op = self._pending[0]
            if op.kind == "insert":
                started = time.perf_counter()
                self.healer.insert(op.node, attach_to=op.attach)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                self._apply_rank += 1
                self.store.mark_applied(op.seq, elapsed_ms, self._apply_rank)
                self._applied_len += 1
                self.metrics.record_insert(elapsed_ms)
                self._applied_seq = op.seq
                self._pending.pop(0)
                applied += 1
            else:
                window: List[JournalOp] = []
                while (
                    self._pending
                    and self._pending[0].kind == "delete"
                    and len(window) < self.config.batch_window
                ):
                    window.append(self._pending.pop(0))
                victims = [w.node for w in window]
                seq_of = {w.node: w.seq for w in window}
                started = time.perf_counter()
                burst = self.healer.delete_batch(victims)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                # The oracle deleted in admission order — that order (not
                # submission order) is what a restore must replay, so the
                # ranks follow the burst's per-victim reports.
                for report in burst.reports:
                    self._apply_rank += 1
                    self.store.mark_applied(
                        seq_of[report.deleted_node], elapsed_ms, self._apply_rank
                    )
                    self._applied_len += 1
                    self.metrics.record_recovery(report.recovery)
                for size in burst.wave_sizes:
                    self.metrics.record_wave(
                        size, elapsed_ms * size / max(len(victims), 1)
                    )
                self._applied_seq = max(w.seq for w in window)
                applied += len(window)
            self._ops_since_checkpoint += 1 if op.kind == "insert" else len(window)
            if (
                checkpoint
                and self.config.checkpoint_every
                and self._ops_since_checkpoint >= self.config.checkpoint_every
            ):
                self.checkpoint()
        self.store.commit()
        # Nothing in the service tails the engine's journals, so all they
        # hold is drained; left alone, every healed-degree change since
        # genesis would stay in memory.
        self.healer.compact_journals()
        return applied

    def checkpoint(self) -> int:
        """Write a checkpoint of the *applied* state; returns its id.

        Unpumped backlog is untouched — it stays journalled and lands in
        the suffix any restore replays, so checkpointing between pump
        iterations is always safe.  The applied marks commit first, on
        their own: a checkpoint that fails rolls back only itself, never the
        apply ranks of the ops it covers.  The metrics record the
        checkpoint's wall time and the record and link rows it rewrote.
        """
        record_rows = len(self.healer.network.marks.records)
        self.store.commit()
        started = time.perf_counter()
        ckpt_id = self.store.write_checkpoint(self.healer, seq=self._applied_seq)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._checkpoint_count += 1
        self._ops_since_checkpoint = 0
        self.metrics.record_checkpoint(elapsed_ms, record_rows, self.store.last_link_rows)
        return ckpt_id

    # ------------------------------------------------------------------ #
    # stale-checkpoint rejoin (the mid-repair processor restart)
    # ------------------------------------------------------------------ #
    def rejoin_stale(
        self, victim: Optional[NodeId] = None, stale: Optional[NodeId] = None
    ) -> RejoinReport:
        """Restart one repair participant from the latest checkpoint image.

        Checkpoints the current (pre-repair) state, runs one deletion
        through the *sequential* path — which leaves the repair contexts
        installed, exactly the mid-repair moment — then rolls the chosen
        participant's records back to the checkpoint image it would re-read
        on restart: its helper role for this repair is forgotten
        (``clear_helper`` where ``helper_victim`` is this repair's victim)
        and its ``rt_parent`` / ``representative`` rewires revert.  The
        leader's confirmations toward the restarted processor are dropped
        (its acks died with it).  Digest recovery then heals the divergence
        with real retransmissions, and the result is certified against the
        oracle.
        """
        if self._pending:
            raise ConfigurationError("rejoin_stale requires a pumped (quiescent) daemon")
        healer = self.healer
        network = healer.network
        if victim is None:
            victim = max(
                healer.alive_nodes,
                key=lambda n: (healer.engine.g_prime_degree(n), repr(n)),
            )
        if victim not in self._projected_alive:
            raise ConfigurationError(f"rejoin victim {victim!r} is not alive")
        self.checkpoint()

        seq = self.store.append_op("__rejoin__", "delete", victim)
        self._journal_len += 1
        self._projected_alive.discard(victim)
        started = time.perf_counter()
        healer.delete(victim)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self._apply_rank += 1
        self.store.mark_applied(seq, elapsed_ms, self._apply_rank)
        self.store.commit()
        self._applied_len += 1
        self._applied_seq = seq
        self.metrics.record_wave(1, elapsed_ms)
        self._ops_since_checkpoint += 1

        repair = healer._installed
        candidates = [
            p
            for p in repair.participants
            if p != repair.leader and network.has_processor(p)
        ]
        if stale is None:
            stale = candidates[0] if candidates else None
        elif stale not in candidates:
            raise ConfigurationError(
                f"{stale!r} is not a restartable participant of this repair; "
                f"candidates: {candidates}"
            )
        if stale is None:
            # Degenerate repair (leader-only): nothing to restart, but the
            # deletion itself still converged — report it as such.
            recovery = healer.reconverge()
            clean = not healer.audit_reference()
            return RejoinReport(
                victim=victim,
                stale=None,
                records_rolled_back=0,
                converged=recovery.converged,
                sweeps=recovery.sweeps,
                retransmissions=recovery.retransmissions,
                audit_clean=clean,
                verified=clean,
            )

        # The restart: re-read the checkpoint image of this one processor,
        # its record rows over the records Init made, scoped to what this
        # repair wrote.  A record still held as None is Init's, as is its
        # image (a record any write touched stays built), so it needs no
        # rollback.  The repair context survives (a rejoiner answers digest
        # requests; losing the context entirely is the *crash* case).
        rows = self.store.load_records(stale).get(stale, {})
        processor = network.processors[stale]
        rolled_back = 0
        for neighbor, record in processor.edges.items():
            if record is None:
                continue
            fields = rows.get(neighbor)
            stored = init_record(stale, neighbor) if fields is None else EdgeRecord(**fields)
            changed = False
            if record.has_helper and record.helper_victim == repair.victim:
                record.clear_helper()
                changed = True
            if record.rt_parent != stored.rt_parent:
                record.rt_parent = stored.rt_parent
                changed = True
            if record.representative != stored.representative:
                record.representative = stored.representative
                changed = True
            if changed:
                processor.mark_record(neighbor)
                rolled_back += 1
        leader_proc = network.processors.get(repair.leader)
        context = leader_proc.repairs.get(repair.victim) if leader_proc else None
        if context is not None:
            for port in list(context.confirmed_ports):
                if port.processor == stale:
                    del context.confirmed_ports[port]

        recovery = healer.reconverge()
        self.metrics.record_recovery(recovery)
        self.metrics.record_rejoin()
        clean = not healer.audit_reference()
        return RejoinReport(
            victim=victim,
            stale=stale,
            records_rolled_back=rolled_back,
            converged=recovery.converged,
            sweeps=recovery.sweeps,
            retransmissions=recovery.retransmissions,
            audit_clean=clean,
            verified=clean,
        )

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def status(self) -> Dict[str, object]:
        """The live status snapshot the JSON endpoint serves."""
        return self.metrics.snapshot(
            extra={
                "config": self.config.describe(),
                "alive": self.healer.num_alive,
                "nodes_ever": self.healer.nodes_ever,
                "backlog": self.backlog,
                "journal": {
                    "length": self._journal_len,
                    "applied": self._applied_len,
                },
                "checkpoints": self._checkpoint_count,
                "transcript_accusations": len(self.healer.network.transcript),
                "store_bytes": self.store.size_bytes(),
            }
        )

    def serve_status(self, host: str = "127.0.0.1", port: int = 0) -> StatusServer:
        """Start the JSON status endpoint; returns the (started) server."""
        if self._status_server is not None:
            return self._status_server
        self._status_server = StatusServer(self.status, host=host, port=port).start()
        return self._status_server

    def close(self) -> None:
        if self._status_server is not None:
            self._status_server.stop()
            self._status_server = None
        self.store.close()
