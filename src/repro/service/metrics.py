"""Live observability for the healer daemon.

:class:`ServiceMetrics` is a thread-safe accumulator the daemon feeds as it
applies operations: per-repair latency samples (a bounded ring buffer, so
percentiles reflect *recent* behaviour), recovery-cost totals (digest
traffic, retransmissions, fixed-point probe results — the silent-protocol
evidence), wave occupancy from the ``delete_batch`` admission path, and
store sizes.  :meth:`snapshot` renders everything as one JSON-safe dict;
:class:`StatusServer` serves that snapshot over HTTP (``GET /status``) from
a stdlib ``ThreadingHTTPServer`` so a live daemon can be probed — by a
human, a monitor, or the CI service job — without touching its event
loop.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional

__all__ = ["ServiceMetrics", "StatusServer", "percentile"]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(int(round(q / 100.0 * len(ordered) + 0.5)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


class ServiceMetrics:
    """Thread-safe counters and latency percentiles for one daemon run.

    Latencies are wall-clock milliseconds per applied operation (for a
    ``delete_batch`` wave, the shared wall time is attributed to each rider
    — the burst's point is precisely that k repairs share it).  The ring
    buffer keeps the last ``latency_window`` samples so a long-lived daemon
    reports *current* percentiles, not a lifetime average.
    """

    def __init__(self, latency_window: int = 256) -> None:
        self._lock = threading.Lock()
        self._latencies_ms: deque = deque(maxlen=max(int(latency_window), 1))
        self.ops_applied = 0
        self.inserts = 0
        self.deletes = 0
        self.waves = 0
        self.wave_occupancy_sum = 0
        self.max_wave = 0
        self.recovery_sweeps = 0
        self.recovery_retransmissions = 0
        self.recovery_digest_messages = 0
        #: Count of repairs whose fixed-point probe ran and emitted nothing
        #: (the silent-protocol property) vs. probes that emitted traffic.
        self.fixed_point_silent = 0
        self.fixed_point_noisy = 0
        self.checkpoints_written = 0
        self.restarts = 0
        self.rejoins_healed = 0
        #: Wall-clock seconds this run has spent applying ops.
        self.busy_seconds = 0.0

    # ------------------------------------------------------------------ #
    # feeding
    # ------------------------------------------------------------------ #
    def record_insert(self, latency_ms: float) -> None:
        with self._lock:
            self.ops_applied += 1
            self.inserts += 1
            self._latencies_ms.append(latency_ms)
            self.busy_seconds += latency_ms / 1000.0

    def record_wave(self, size: int, latency_ms: float) -> None:
        """One ``delete_batch`` admission wave of ``size`` riders."""
        with self._lock:
            self.waves += 1
            self.wave_occupancy_sum += size
            self.max_wave = max(self.max_wave, size)
            self.ops_applied += size
            self.deletes += size
            for _ in range(size):
                self._latencies_ms.append(latency_ms)
            self.busy_seconds += latency_ms / 1000.0

    def record_recovery(self, report) -> None:
        """Fold one :class:`RecoveryCostReport` into the totals."""
        if report is None:
            return
        with self._lock:
            self.recovery_sweeps += report.sweeps
            self.recovery_retransmissions += report.retransmissions
            self.recovery_digest_messages += report.digest_messages
            if report.fixed_point_messages == 0:
                self.fixed_point_silent += 1
            elif report.fixed_point_messages > 0:
                self.fixed_point_noisy += 1

    def record_checkpoint(self) -> None:
        with self._lock:
            self.checkpoints_written += 1

    def record_restart(self) -> None:
        with self._lock:
            self.restarts += 1

    def record_rejoin(self) -> None:
        with self._lock:
            self.rejoins_healed += 1

    # ------------------------------------------------------------------ #
    # reading
    # ------------------------------------------------------------------ #
    def snapshot(self, extra: Optional[Dict[str, object]] = None) -> Dict[str, object]:
        """One JSON-safe view of everything (served by :class:`StatusServer`)."""
        with self._lock:
            samples = list(self._latencies_ms)
            ops_per_sec = (
                self.ops_applied / self.busy_seconds if self.busy_seconds > 0 else 0.0
            )
            snap: Dict[str, object] = {
                "ops_applied": self.ops_applied,
                "inserts": self.inserts,
                "deletes": self.deletes,
                "ops_per_sec": round(ops_per_sec, 2),
                "latency_ms": {
                    "p50": round(percentile(samples, 50), 3),
                    "p90": round(percentile(samples, 90), 3),
                    "p99": round(percentile(samples, 99), 3),
                    "samples": len(samples),
                },
                "waves": {
                    "count": self.waves,
                    "mean_occupancy": (
                        round(self.wave_occupancy_sum / self.waves, 3) if self.waves else 0.0
                    ),
                    "max_occupancy": self.max_wave,
                },
                "recovery": {
                    "sweeps": self.recovery_sweeps,
                    "retransmissions": self.recovery_retransmissions,
                    "digest_messages": self.recovery_digest_messages,
                    "fixed_point_silent": self.fixed_point_silent,
                    "fixed_point_noisy": self.fixed_point_noisy,
                },
                "checkpoints_written": self.checkpoints_written,
                "restarts": self.restarts,
                "rejoins_healed": self.rejoins_healed,
            }
        if extra:
            snap.update(extra)
        return snap


class StatusServer:
    """Minimal JSON status endpoint over stdlib HTTP (``GET /status``).

    The handler calls a zero-argument ``snapshot_fn`` on every request, so
    responses always reflect the daemon's current state; any other path is
    a 404.  ``port=0`` binds an ephemeral port (the bound port is on
    :attr:`port`, and ``scripts/healerd.py`` writes it to a port file so
    an external probe can find it).
    """

    def __init__(self, snapshot_fn, host: str = "127.0.0.1", port: int = 0) -> None:
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path.rstrip("/") not in ("", "/status"):
                    self.send_error(404)
                    return
                body = json.dumps(outer._snapshot_fn(), indent=2).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence per-request stderr
                pass

        self._snapshot_fn = snapshot_fn
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self.host = host
        self.port = int(self._server.server_address[1])
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)

    def start(self) -> "StatusServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/status"
