"""Client side of the analysis-server protocol.

``repro-analyze --server`` goes through here: if a daemon is listening
on the socket, requests are served warm; if not (or the daemon dies,
stalls past the read timeout, or answers with an error), the request
fails once with :class:`ServerUnavailable` or :class:`ServerError` and
the CLI falls back to inline analysis — the server is an accelerator,
never a requirement.  Nothing is retried: a re-sent request would only
queue behind work the daemon may still be doing, and the inline
fallback renders the same bytes.  Responses traffic in the same
serialized ``Report.to_dict`` forms the batch driver and cache use, so
rendering a server result is byte-identical to rendering an inline one.

The limits are fixed module constants (a test monkeypatches them):
connecting to a local Unix socket either succeeds at once or never will
(:data:`CONNECT_TIMEOUT`); an answer may take as long as the daemon's
analysis cap (:data:`READ_TIMEOUT`); pings get their own short deadline
(:data:`PING_TIMEOUT`) so liveness checks never wait behind an analysis.
A per-socket :class:`CircuitBreaker` makes a CLI that lost its daemon
fail fast to the inline path instead of re-probing the socket per file;
breaker transitions and fast failures are counted under
``server.client.*``.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Dict, Optional, Sequence

from ..analysis.pipeline import OPS, BatchConfig
from ..analysis.report import Report
from ..obs import get_recorder
from . import protocol

#: connecting to a local Unix socket either works immediately or never
CONNECT_TIMEOUT = 5.0

#: reading an analysis answer may take as long as the daemon's budget
#: cap (30s); leave headroom for batches
READ_TIMEOUT = 60.0

#: liveness probes must never wait behind an analysis budget
PING_TIMEOUT = 5.0

#: consecutive failures that open a socket's breaker, and the seconds
#: it then fails fast before letting one probe through
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN = 5.0


class ServerUnavailable(Exception):
    """No daemon on the socket, or it vanished or stalled mid-request."""


class ServerError(Exception):
    """The daemon answered, but with an error response."""


class CircuitBreaker:
    """Per-socket failure gate: closed -> open -> half-open -> closed.

    :data:`BREAKER_THRESHOLD` consecutive failures open the breaker;
    while open, :meth:`allow` returns False (callers fail fast to inline
    analysis) until :data:`BREAKER_COOLDOWN` seconds pass, when the
    breaker half-opens and lets exactly one probe through.  The probe's
    outcome closes or re-opens it.  Thread-safe; inject ``clock`` for
    deterministic tests.
    """

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.state = "closed"
        self.failures = 0
        self.opened_at: Optional[float] = None
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Whether a request may touch the socket right now."""
        with self._lock:
            if self.state == "closed":
                return True
            if self.state == "open":
                if self.clock() - self.opened_at >= BREAKER_COOLDOWN:
                    self.state = "half-open"
                    get_recorder().count("server.client.breaker_halfopen")
                    return True
                get_recorder().count("server.client.breaker_fastfail")
                return False
            # half-open: one probe is already in flight; fail fast
            get_recorder().count("server.client.breaker_fastfail")
            return False

    def record_success(self) -> None:
        with self._lock:
            self.state = "closed"
            self.failures = 0
            self.opened_at = None

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            if self.state == "half-open" or self.failures >= BREAKER_THRESHOLD:
                if self.state != "open":
                    get_recorder().count("server.client.breaker_open")
                self.state = "open"
                self.opened_at = self.clock()


#: one breaker per socket path, shared by every client in the process —
#: a CLI that falls back inline once should keep failing fast for the
#: breaker's cooldown instead of re-probing a dead daemon per file
_breakers: Dict[str, CircuitBreaker] = {}
_breakers_lock = threading.Lock()


def breaker_for(socket_path: str) -> CircuitBreaker:
    with _breakers_lock:
        breaker = _breakers.get(socket_path)
        if breaker is None:
            breaker = _breakers[socket_path] = CircuitBreaker()
        return breaker


def reset_breakers() -> None:
    """Forget all breaker state (tests)."""
    with _breakers_lock:
        _breakers.clear()


class ServerClient:
    """One connection to a running daemon; usable as a context manager.

    After every round trip the envelope's observability fields are kept
    on the client (``last_request_id``, ``last_elapsed_ms``,
    ``last_metrics``), so callers can attribute server-side cost to the
    exact request they just made without a second ``stats`` call.

    ``breaker`` defaults to the process-wide per-socket breaker (pass
    your own instance to isolate).
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        breaker: Optional[CircuitBreaker] = None,
    ):
        self.socket_path = socket_path or protocol.default_socket_path()
        self.breaker = breaker if breaker is not None else breaker_for(self.socket_path)
        self.last_request_id: Optional[str] = None
        self.last_elapsed_ms: Optional[float] = None
        self.last_metrics: Optional[dict] = None
        self._sock: Optional[socket.socket] = None
        self._file = None

    # -- connection ---------------------------------------------------------

    def connect(self) -> "ServerClient":
        if self._sock is not None:
            return self
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(CONNECT_TIMEOUT)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            raise ServerUnavailable(
                f"no analysis server at {self.socket_path}: {exc}"
            ) from exc
        self._sock = sock
        self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServerClient":
        return self.connect()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- requests -----------------------------------------------------------

    def request(self, message: dict):
        """One request, sent once; returns the ``result``.

        A lost, silent or absent daemon raises :class:`ServerUnavailable`
        and an error envelope raises :class:`ServerError`; the caller
        falls back inline.  An open circuit breaker fails fast without
        touching the socket.
        """
        if not self.breaker.allow():
            raise ServerUnavailable(
                f"circuit breaker open for {self.socket_path}: "
                f"{self.breaker.failures} consecutive failure(s)"
            )
        try:
            self.connect()
            self._sock.settimeout(
                PING_TIMEOUT if message.get("op") == "ping" else READ_TIMEOUT
            )
            try:
                self._file.write(protocol.encode(message))
                self._file.flush()
                response = protocol.read_message(self._file)
            except (OSError, protocol.ProtocolError) as exc:
                self.close()
                raise ServerUnavailable(f"analysis server lost: {exc}") from exc
            if response is None:
                self.close()
                raise ServerUnavailable("analysis server closed the connection")
        except ServerUnavailable:
            self.breaker.record_failure()
            get_recorder().count("server.client.failures")
            raise
        # the daemon is alive and answering, even when its answer is "no"
        self.breaker.record_success()
        self.last_request_id = response.get("request_id")
        self.last_elapsed_ms = response.get("elapsed_ms")
        self.last_metrics = response.get("metrics")
        if not response.get("ok"):
            raise ServerError(response.get("error", "unknown server error"))
        return response.get("result")

    def ping(self) -> dict:
        """Liveness probe under :data:`PING_TIMEOUT` — a wedged daemon
        must fail the probe, not hang it."""
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics_text(self) -> str:
        """The daemon's totals in Prometheus text exposition format,
        rendered from one ``stats`` response (snapshot plus gauges)."""
        from ..obs import MetricsSnapshot
        from ..obs.export import prometheus_text

        stats = self.stats()
        return prometheus_text(
            MetricsSnapshot.from_dict(stats["metrics"]),
            gauges={
                "server.uptime_seconds": stats["uptime_s"],
                "server.inflight_requests": stats["inflight"],
                "server.max_inflight_requests": stats["max_inflight"],
                "server.pool_workers": stats["jobs"],
                "server.pool_alive": 1.0 if stats["pool_alive"] else 0.0,
            },
        )

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})

    def run(self, op: str, source: str, config: Optional[BatchConfig] = None) -> dict:
        """One script's text through the daemon's ``op`` (``analyze`` or
        ``optimize``); returns the serialized payload, byte-identical to
        an inline run over the same source + config."""
        result = self.request(
            {
                "op": op,
                "source": source,
                "config": protocol.config_to_wire(config or BatchConfig()),
            }
        )
        return result[OPS[op].wire]

    def analyze_source(self, source: str, config: Optional[BatchConfig] = None) -> Report:
        """Analyze one script's text; returns the reconstructed Report."""
        return Report.from_dict(self.run("analyze", source, config))

    def optimize_source(
        self, source: str, config: Optional[BatchConfig] = None
    ) -> dict:
        """One script's optimization plan (the serialized plan dict,
        ready for ``OptimizePlan.from_dict``)."""
        return self.run("optimize", source, config)

    def batch(
        self,
        inputs: Sequence[str],
        config: Optional[BatchConfig] = None,
        op: str = "analyze",
    ):
        """Run ``op`` over files/dirs/globs; returns a result exactly
        shaped like :func:`~repro.analysis.batch.run_batch`'s.

        Inputs are absolutized first (the daemon resolves paths in *its*
        working directory, which need not be the client's); when every
        input was relative, the returned paths are mapped back to
        cwd-relative form so the rendered output is byte-identical to
        the inline path.
        """
        spec = OPS[op]
        result = self.request(
            {
                "op": "batch",
                "of": op,
                "inputs": [os.path.abspath(item) for item in inputs],
                "config": protocol.config_to_wire(config or BatchConfig()),
            }
        )
        cwd = os.getcwd()
        relativize = all(not os.path.isabs(item) for item in inputs)

        def local_path(path: str) -> str:
            return os.path.relpath(path, cwd) if relativize else path

        batch_type, payload = spec.batch_type, spec.payload_type
        return batch_type(
            results=[
                batch_type.file_type(
                    local_path(entry["path"]),
                    payload.from_dict(entry[spec.wire]),
                    entry.get("cached", False),
                    entry.get("seconds", 0.0),
                    entry.get("quarantined", False),
                )
                for entry in result.get("results", [])
            ],
            hits=result.get("hits", 0),
            misses=result.get("misses", 0),
        )


def server_available(socket_path: Optional[str] = None) -> bool:
    """True when a daemon answers a ping on the socket."""
    try:
        with ServerClient(socket_path) as client:
            client.ping()
            return True
    except (ServerUnavailable, ServerError):
        return False
