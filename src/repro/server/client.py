"""Client side of the analysis-server protocol.

``repro-analyze --server`` goes through here: if a daemon is listening
on the socket, requests are served warm; if not (or the daemon dies
mid-conversation), :class:`ServerUnavailable` is raised and the CLI
falls back to inline analysis — the server is an accelerator, never a
requirement.  Responses traffic in the same serialized
``Report.to_dict`` forms the batch driver and cache use, so rendering a
server result is byte-identical to rendering an inline one.

The failure-handling layer (the crash-only counterpart to the daemon's
:mod:`.supervise`):

- **Separate connect/read timeouts.**  Connecting to a local Unix
  socket either succeeds instantly or never will, so the connect
  timeout is short (:data:`DEFAULT_CONNECT_TIMEOUT`); reading an answer
  can legitimately take as long as the analysis
  (:data:`DEFAULT_READ_TIMEOUT`), and pings get their own short
  deadline so liveness checks never hang behind the analyze budget.
- **Bounded retries with jittered exponential backoff.**  Only
  *retryable* failures are retried: a daemon that died mid-conversation
  (it may be restarting under its supervisor).  A connect refusal is
  not retried — nobody is listening, and the caller's inline fallback
  is faster than three sleeps.  ``shutdown`` is never retried (the
  daemon going away is the success condition).
- **Circuit breaker.**  After ``threshold`` consecutive failures the
  per-socket breaker opens and requests fail fast to the inline
  fallback without touching the socket; after ``cooldown`` seconds it
  half-opens and lets one probe through.  Breaker transitions and fast
  failures are counted under ``server.client.*``.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..analysis.pipeline import OPS, BatchConfig
from ..analysis.report import Report
from ..analysis.resilience import jittered_backoff
from ..obs import get_recorder
from . import protocol

#: connecting to a local Unix socket either works immediately or never
DEFAULT_CONNECT_TIMEOUT = 5.0

#: reading an analysis answer may take as long as the server-side
#: budget allows (the daemon's cap is 30s; leave headroom for batches)
DEFAULT_READ_TIMEOUT = 60.0

#: liveness probes must never wait behind an analysis budget
DEFAULT_PING_TIMEOUT = 5.0


class ServerUnavailable(Exception):
    """No daemon on the socket (or it vanished mid-request).

    ``retryable`` distinguishes a daemon that *died mid-conversation*
    (worth retrying — its supervisor may be restarting it) from a
    socket nobody is listening on (retrying cannot help; fall back
    inline immediately).
    """

    def __init__(self, message: str, retryable: bool = False):
        super().__init__(message)
        self.retryable = retryable


class ServerError(Exception):
    """The daemon answered, but with an error response."""


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a retryable failure, and how to wait."""

    retries: int = 2
    backoff_base: float = 0.05
    multiplier: float = 2.0
    cap: float = 1.0
    jitter: float = 0.25

    def delay(self, attempt: int, rng=None) -> float:
        return jittered_backoff(
            attempt,
            base=self.backoff_base,
            multiplier=self.multiplier,
            cap=self.cap,
            jitter=self.jitter,
            rng=rng,
        )


class CircuitBreaker:
    """Per-socket failure gate: closed -> open -> half-open -> closed.

    ``threshold`` consecutive failures open the breaker; while open,
    :meth:`allow` returns False (callers fail fast to inline analysis)
    until ``cooldown`` seconds pass, when the breaker half-opens and
    lets exactly one probe through.  The probe's outcome closes or
    re-opens it.  Thread-safe; inject ``clock`` for deterministic
    tests.
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 5.0,
        clock=time.monotonic,
    ):
        self.threshold = threshold
        self.cooldown = cooldown
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
                if self.clock() - self.opened_at >= self.cooldown:
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
            if self.state == "half-open" or self.failures >= self.threshold:
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

    ``timeout`` is the legacy single-knob form and sets both the
    connect and read timeouts; prefer the split ``connect_timeout`` /
    ``read_timeout``.  ``retry`` bounds retries of *retryable*
    failures; ``breaker`` defaults to the process-wide per-socket
    breaker (pass your own instance to isolate).  ``rng`` and ``sleep``
    exist for deterministic tests.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        timeout: Optional[float] = None,
        *,
        connect_timeout: Optional[float] = None,
        read_timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        rng=None,
        sleep=time.sleep,
    ):
        self.socket_path = socket_path or protocol.default_socket_path()
        if timeout is not None:
            connect_timeout = timeout if connect_timeout is None else connect_timeout
            read_timeout = timeout if read_timeout is None else read_timeout
        self.connect_timeout = (
            DEFAULT_CONNECT_TIMEOUT if connect_timeout is None else connect_timeout
        )
        self.read_timeout = (
            DEFAULT_READ_TIMEOUT if read_timeout is None else read_timeout
        )
        self.retry = retry or RetryPolicy()
        self.breaker = breaker if breaker is not None else breaker_for(self.socket_path)
        self.rng = rng
        self.sleep = sleep
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
        sock.settimeout(self.connect_timeout)
        try:
            sock.connect(self.socket_path)
        except OSError as exc:
            sock.close()
            # nobody listening: not retryable — the caller's inline
            # fallback beats waiting for a daemon that is not there
            raise ServerUnavailable(
                f"no analysis server at {self.socket_path}: {exc}"
            ) from exc
        sock.settimeout(self.read_timeout)
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

    def request(self, message: dict, read_timeout: Optional[float] = None):
        """One request (with bounded retries); returns the ``result``.

        Retries only failures marked retryable — the daemon died after
        we reached it (its supervisor may be restarting it) — with
        jittered exponential backoff between attempts, gated by the
        circuit breaker.  Connect refusals, server-side errors
        (:class:`ServerError`), and ``shutdown`` requests are never
        retried.
        """
        retries = 0 if message.get("op") == "shutdown" else self.retry.retries
        attempt = 0
        while True:
            if not self.breaker.allow():
                raise ServerUnavailable(
                    f"circuit breaker open for {self.socket_path}: "
                    f"{self.breaker.failures} consecutive failure(s)"
                )
            try:
                result = self._roundtrip(message, read_timeout=read_timeout)
            except ServerUnavailable as exc:
                self.breaker.record_failure()
                if not exc.retryable or attempt >= retries:
                    get_recorder().count("server.client.failures")
                    raise
                get_recorder().count("server.client.retries")
                self.sleep(self.retry.delay(attempt, rng=self.rng))
                attempt += 1
                continue
            except ServerError:
                # the daemon is alive and answering; its "no" is final
                self.breaker.record_success()
                raise
            self.breaker.record_success()
            return result

    def _roundtrip(self, message: dict, read_timeout: Optional[float] = None):
        """One attempt: write the frame, read one envelope."""
        self.connect()
        if read_timeout is not None:
            self._sock.settimeout(read_timeout)
        try:
            self._file.write(protocol.encode(message))
            self._file.flush()
            response = protocol.read_message(self._file)
        except (OSError, protocol.ProtocolError) as exc:
            self.close()
            # we reached the daemon and it vanished mid-conversation:
            # retryable — a supervisor may already be restarting it
            raise ServerUnavailable(
                f"analysis server lost: {exc}", retryable=True
            ) from exc
        finally:
            if read_timeout is not None and self._sock is not None:
                self._sock.settimeout(self.read_timeout)
        if response is None:
            self.close()
            raise ServerUnavailable(
                "analysis server closed the connection", retryable=True
            )
        self.last_request_id = response.get("request_id")
        self.last_elapsed_ms = response.get("elapsed_ms")
        self.last_metrics = response.get("metrics")
        if not response.get("ok"):
            raise ServerError(response.get("error", "unknown server error"))
        return response.get("result")

    def ping(self, timeout: float = DEFAULT_PING_TIMEOUT) -> dict:
        """Liveness probe under its own short deadline — a wedged
        daemon must fail the probe, not hang it."""
        return self.request({"op": "ping"}, read_timeout=timeout)

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def metrics_text(self) -> str:
        """The daemon's totals in Prometheus text exposition format."""
        return self.request({"op": "metrics"})["text"]

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
        with ServerClient(socket_path, timeout=2.0) as client:
            client.ping(timeout=2.0)
            return True
    except (ServerUnavailable, ServerError):
        return False
