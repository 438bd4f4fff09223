"""The resident analysis daemon (``repro-served``).

The paper's just-in-time deployment — analyzing a script at the moment
it is about to run — needs answers at interactive latency, and a
one-shot CLI cannot deliver that: every invocation pays interpreter
start-up, spec-corpus loading, and DFA-cache warm-up before the first
byte of analysis.  The daemon pays those costs once and keeps the three
warm stores resident:

- the spec registry (command models) and its compiled min-DFAs,
- one language table (:class:`~repro.rlang.table.RunTable`) for its
  ``analyze`` and ``optimize`` requests, so a request reuses the
  automata earlier requests built; past :data:`LANGUAGE_STATES` DFA
  states the next request starts a fresh table
  (``server.languages_reset``).  A batch or a watch round runs each
  file on a table of its own: it may hold any number of files, and the
  bound is checked once per request,
- the persistent :class:`~repro.analysis.cache.ResultCache`, so an
  unchanged file costs one hash + one read — zero symbolic execution.

Requests arrive over a Unix socket as line-delimited JSON (see
:mod:`.protocol`); each connection is served on its own thread, and
batch requests fan out across a *persistent* process pool that
survives between requests.  Every request's budget is clamped to the
server caps (:data:`CAP_DEADLINE`, :data:`CAP_STATES`) — a client may
ask for less time than the cap, never more — so one pathological script
cannot wedge the daemon for other clients.

Observability (the production-service layer):

- **Request-scoped telemetry.**  Every request gets a request id and
  its own :class:`~repro.obs.MetricsRecorder` (counters and
  histograms; the daemon exports no spans), installed with
  ``use_recorder`` (which scopes to the handler thread) so concurrent
  requests cannot contaminate each other; worker-side
  metric snapshots from the process pool are folded in, the request's
  snapshot is returned in the response envelope (``request_id``,
  ``elapsed_ms``, ``metrics``), and then absorbed into the server's
  totals — so per-request metrics always sum consistently into the
  ``stats`` op, and the long-lived recorder's memory stays bounded
  (snapshots carry no spans).
- **Structured ops log.**  ``--log-file`` appends one JSON object per
  event: request lifecycle (``request.accept`` / ``request.done`` /
  ``request.error`` / ``request.shed``), slow requests over
  ``--slow-ms`` (``request.slow``), watch-loop rescans and stat
  failures, budget clamps, and daemon start/stop.
- **Metrics exposition.**  The ``stats`` op reports uptime, request
  rates, per-op latency quantiles, cache hit rate, pool state,
  clamp/shed/error counts and the raw metrics snapshot; ``repro-top``
  renders it as a live console, or (``--metrics``) as Prometheus text
  built client-side from the same response.
- **Load shedding.**  At most :data:`MAX_INFLIGHT` requests run at
  once; excess requests are answered immediately with a structured
  shed error instead of queueing behind a saturated pool.

Fault tolerance is crash-only (see :mod:`.supervise`).  The daemon
never restarts itself; recovery is the normal startup path, and
a client that loses the daemon falls back inline:

- **Stale-socket takeover.**  Startup probes an existing socket file:
  a live daemon makes the bind fail loudly, a dead one is evicted with
  a ``server.socket_takeover`` event.  Pool workers close their
  inherited copy of the listening socket, so after a ``kill -9`` the
  stale socket refuses connections instead of queueing them, and they
  exit on their own once the daemon is gone (``batch._make_pool``).
- **Pool rebuild.**  A batch whose worker died breaks the process
  pool; affected files are retried inline (or answered degraded) by
  the batch driver, and the pool is rebuilt eagerly before the
  response is sent (``server.pool_rebuilds``), so the *next* request
  never pays the rebuild.
- **Graceful drain.**  ``SIGTERM`` (or :meth:`AnalysisServer.drain`)
  stops accepting new requests — they get an immediate structured
  refusal — waits for in-flight requests up to
  :data:`DRAIN_DEADLINE`, then stops the loop.  A drain that hits the
  deadline abandons the stragglers (``server.drain_forced``): crash-only
  means the hard stop is always safe.
- **Protocol hardening.**  Frames are read through
  :class:`~.protocol.FrameReader`: oversized or stalled partial frames
  (:data:`~.protocol.FRAME_DEADLINE`) are answered with an error
  envelope and the connection is closed; malformed JSON is answered
  without dropping the connection; a client that disappears mid-frame
  costs one counter, never a wedged thread.
"""

from __future__ import annotations

import itertools
import os
import socketserver
import threading
import time
import weakref
from typing import ContextManager, List, Optional

from .. import __version__
from ..analysis.batch import _make_pool, run_batch
from ..analysis.cache import ResultCache
from ..analysis.pipeline import OPS, BatchConfig, run_source
from ..obs import (
    MetricsSnapshot,
    NullOpsLogger,
    OpsLogger,
    MetricsRecorder,
    get_recorder,
    use_recorder,
)
from ..rlang.table import RunTable, run_table
from . import protocol, supervise
from .watch import Watcher

#: server-side ceilings for per-request budgets
CAP_DEADLINE = 30.0
CAP_STATES = 2_000_000

#: requests slower than this (wall-clock ms) get a ``request.slow``
#: log event and bump ``server.slow_requests``
DEFAULT_SLOW_MS = 1000.0

#: concurrent-request ceiling; excess requests are shed with a
#: structured error rather than queued behind a saturated pool
MAX_INFLIGHT = 64

#: in-flight requests get this many seconds to finish when draining
#: before the hard stop abandons them
DRAIN_DEADLINE = 5.0

#: DFA states the daemon's language table may hold before the next
#: request replaces it with a fresh one.  A counted state costs about
#: 270 bytes, so the bound is about 5.5 MB; the examples, the labelled
#: corpus and safe generator seeds 0-39 together leave about 9 700.
LANGUAGE_STATES = 20_000

#: every op the daemon answers; any other name is an ``unknown op`` error
_SERVED_OPS = frozenset(OPS) | {"ping", "batch", "stats", "shutdown"}


class AnalysisServer:
    """The long-lived analysis service behind the socket.

    Owns the warm state (result cache, persistent process pool, the
    totals recorder, the ops log) and implements every protocol op as a
    method; the socket layer (:class:`_SocketServer`) is a thin
    threaded shell around :meth:`handle_request`.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        jobs: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        recorder: Optional[MetricsRecorder] = None,
        log: Optional[OpsLogger] = None,
        slow_ms: float = DEFAULT_SLOW_MS,
    ):
        self.socket_path = socket_path or protocol.default_socket_path()
        self.jobs = jobs if jobs is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.recorder = recorder or MetricsRecorder()
        self.log = log or NullOpsLogger()
        self.slow_ms = slow_ms
        self.started_at = time.monotonic()
        self.inflight = 0
        self.draining = threading.Event()
        self._inflight_lock = threading.Lock()
        self._request_seq = itertools.count(1)
        self._pool = None
        self._pool_lock = threading.Lock()
        self._server: Optional[_SocketServer] = None
        self._watcher_stop = threading.Event()
        self._languages = RunTable()
        self._languages_lock = threading.Lock()

    # -- warm state ---------------------------------------------------------

    def languages(self) -> ContextManager[RunTable]:
        """A scope that installs the daemon's language table on this
        thread for one script's analysis (an ``analyze`` or ``optimize``
        request, or the warm-up).  Every run inside reuses it (a nested
        ``run_table`` keeps the installed table), so automata built for
        one request serve the next; a table over
        :data:`LANGUAGE_STATES` is first replaced by a fresh one, so the
        table holds at most the bound plus what the requests in flight
        add, one script each."""
        with self._languages_lock:
            if self._languages.states > LANGUAGE_STATES:
                self._languages = RunTable()
                get_recorder().count("server.languages_reset")
            return run_table(self._languages)

    def warm(self) -> None:
        """Pay the cold-start costs up front: build every spec of the
        registry and run one trivial analysis so the shared DFA caches
        (spec patterns, common regexes) are built before the first
        request arrives, and no request pays for a spec."""
        from ..analysis import analyze
        from ..specs import default_registry

        with use_recorder(self.recorder), self.languages():
            with self.recorder.span("server.warm"):
                default_registry().build_all()
                analyze("true\n")

    def _get_pool(self):
        """The persistent process pool, (re)created on demand.  A pool
        whose workers died is replaced rather than reused; ``jobs=1``
        means no pool (inline analysis), which also serves as the
        fallback in pool-less sandboxes."""
        if self.jobs <= 1:
            return None
        with self._pool_lock:
            pool = self._pool
            if pool is not None and getattr(pool, "_broken", False):
                pool.shutdown(wait=False)
                pool = self._pool = None
                self.recorder.absorb(
                    MetricsSnapshot(counters={"server.pool_rebuilds": 1})
                )
                self.log.warning("server.pool_rebuild")
            if pool is None:
                try:
                    pool = self._pool = _make_pool(self.jobs)
                except (OSError, ImportError, RuntimeError):
                    return None
            return pool

    def pool_alive(self) -> bool:
        """Whether a persistent pool currently exists and is usable."""
        with self._pool_lock:
            return self._pool is not None and not getattr(
                self._pool, "_broken", False
            )

    def _clamped(self, config: BatchConfig, request_id: Optional[str] = None) -> BatchConfig:
        """The request's config with its budget clamped to server caps;
        a request that asked for *more* than the cap is counted and
        logged (``budget.clamp``) so over-asking tenants are visible.
        Unset limits get the caps themselves: a served request is never
        unbounded."""
        timeout, max_states = config.timeout, config.max_states
        if (timeout is not None and timeout > CAP_DEADLINE) or (
            max_states is not None and max_states > CAP_STATES
        ):
            get_recorder().count("server.budget_clamped")
            self.log.info(
                "budget.clamp",
                request_id=request_id,
                requested_timeout=timeout,
                requested_max_states=max_states,
                cap_deadline=CAP_DEADLINE,
                cap_states=CAP_STATES,
            )
        return config.replace(
            timeout=CAP_DEADLINE if timeout is None else min(timeout, CAP_DEADLINE),
            max_states=CAP_STATES if max_states is None else min(max_states, CAP_STATES),
        )

    # -- ops ----------------------------------------------------------------

    def _next_request_id(self) -> str:
        return f"{os.getpid():x}-{next(self._request_seq):06d}"

    def handle_request(self, message: dict) -> dict:
        """Dispatch one request; never raises (errors become responses).

        The whole request runs under its own thread-local recorder; the
        resulting snapshot rides back in the response envelope and is
        absorbed into the server totals, so client-visible per-request
        metrics and the ``stats`` op always agree.
        """
        op = message.get("op")
        # metric names come from this label, never from raw client input:
        # an op the daemon does not serve counts as ``unknown``
        label = op if isinstance(op, str) and op in _SERVED_OPS else "unknown"
        request_id = self._next_request_id()
        started = time.perf_counter()

        if self.draining.is_set():
            return self._refused_response(
                op,
                request_id,
                started,
                "server draining: not accepting new requests",
                counter="server.drain_refused",
                flag="draining",
            )
        with self._inflight_lock:
            shed = self.inflight >= MAX_INFLIGHT
            if not shed:
                self.inflight += 1
        if shed:
            return self._shed_response(op, request_id, started)

        request_recorder = MetricsRecorder()
        self.log.debug("request.accept", request_id=request_id, op=op)
        error_text: Optional[str] = None
        result = None
        try:
            with use_recorder(request_recorder):
                request_recorder.count("server.requests")
                request_recorder.count(f"server.op.{label}")
                try:
                    if label == "ping":
                        result = self._op_ping()
                    elif label in OPS:
                        with request_recorder.span(f"server.{label}"):
                            result = self._op_source(label, message, request_id)
                    elif label == "batch":
                        with request_recorder.span("server.batch"):
                            result = self._op_batch(message, request_id)
                    elif label == "stats":
                        result = self._op_stats()
                    elif label == "shutdown":
                        self._initiate_shutdown()
                        result = {"stopping": True}
                    else:
                        request_recorder.count("server.errors")
                        error_text = f"unknown op: {op!r}"
                except Exception as exc:  # noqa: BLE001 — the daemon must survive
                    request_recorder.count("server.errors")
                    error_text = f"{type(exc).__name__}: {exc}"
                    self.log.error(
                        "request.error",
                        request_id=request_id,
                        op=op,
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
        finally:
            with self._inflight_lock:
                self.inflight -= 1

        elapsed_ms = (time.perf_counter() - started) * 1000.0
        request_recorder.observe("server.request_ms", elapsed_ms)
        request_recorder.observe(f"server.request_ms.{label}", elapsed_ms)
        if elapsed_ms >= self.slow_ms:
            request_recorder.count("server.slow_requests")
            self.log.warning(
                "request.slow",
                request_id=request_id,
                op=op,
                elapsed_ms=round(elapsed_ms, 3),
                threshold_ms=self.slow_ms,
            )
        snapshot = request_recorder.snapshot()
        self.recorder.absorb(snapshot)

        if error_text is None:
            envelope = protocol.ok(result)
            self.log.info(
                "request.done",
                request_id=request_id,
                op=op,
                elapsed_ms=round(elapsed_ms, 3),
                cached=result.get("cached") if isinstance(result, dict) else None,
            )
        else:
            envelope = protocol.error(error_text)
        envelope["request_id"] = request_id
        envelope["elapsed_ms"] = elapsed_ms
        if message.get("telemetry", True):
            envelope["metrics"] = snapshot.to_dict()
        return envelope

    def _shed_response(self, op, request_id: str, started: float) -> dict:
        """Immediate structured refusal when the daemon is saturated."""
        self.log.warning(
            "request.shed",
            request_id=request_id,
            op=op,
            max_inflight=MAX_INFLIGHT,
        )
        return self._refused_response(
            op,
            request_id,
            started,
            f"server overloaded: {MAX_INFLIGHT} request(s) already in "
            "flight; retry later",
            counter="server.shed",
            flag="shed",
            log_event=None,  # already logged with shed-specific fields
        )

    def _refused_response(
        self,
        op,
        request_id: str,
        started: float,
        message: str,
        counter: str,
        flag: str,
        log_event: Optional[str] = "request.refused",
    ) -> dict:
        """One error envelope for a request the daemon will not run
        (shed under load, refused while draining) — still exactly one
        response, still carrying a request id."""
        self.recorder.absorb(
            MetricsSnapshot(counters={"server.requests": 1, counter: 1})
        )
        if log_event:
            self.log.warning(
                log_event, request_id=request_id, op=op, reason=flag
            )
        envelope = protocol.error(message)
        envelope["request_id"] = request_id
        envelope[flag] = True
        envelope["elapsed_ms"] = (time.perf_counter() - started) * 1000.0
        return envelope

    def _op_ping(self) -> dict:
        return {
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
        }

    def _op_source(self, op: str, message: dict, request_id: Optional[str] = None) -> dict:
        """One script through ``op`` (``analyze`` or ``optimize``), by
        inline ``source`` or by ``path``: cache lookup first, and the
        same payload dict an inline run produces."""
        source = message.get("source")
        if source is None:
            path = message.get("path")
            if not path:
                raise ValueError(f"{op} request needs 'source' or 'path'")
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        config = self._clamped(
            protocol.config_from_wire(message.get("config")), request_id
        )
        with self.languages():
            data, cached = run_source(op, source, config, self.cache)
        return {OPS[op].wire: data, "cached": cached}

    def _op_batch(self, message: dict, request_id: Optional[str] = None) -> dict:
        inputs = message.get("inputs")
        if not isinstance(inputs, list) or not inputs:
            raise ValueError("batch request needs a non-empty 'inputs' list")
        of = message.get("of", "analyze")
        if of not in OPS:
            raise ValueError(f"batch request of unknown op: {of!r}")
        config = self._clamped(
            protocol.config_from_wire(message.get("config")), request_id
        )
        batch = run_batch(
            inputs,
            config=config,
            jobs=self.jobs,
            cache=self.cache,
            pool=self._get_pool(),
            op=of,
        )
        if self.jobs > 1 and not self.pool_alive():
            # a worker died under this batch and broke the pool; the
            # batch driver already retried the affected files inline —
            # rebuild eagerly so the *next* request never pays for it
            self._get_pool()
        wire = OPS[of].wire
        return {
            "results": [
                {
                    "path": r.path,
                    wire: getattr(r, wire).to_dict(),
                    "cached": r.cached,
                    "quarantined": r.quarantined,
                    "seconds": r.seconds,
                }
                for r in batch.results
            ],
            "hits": batch.hits,
            "misses": batch.misses,
        }

    def _op_stats(self) -> dict:
        """The full operational picture: identity, uptime and rates,
        per-op latency quantiles, cache hit rate, pool and shed state,
        plus the raw metrics snapshot for programmatic consumers."""
        snapshot = self.recorder.snapshot()
        uptime = time.monotonic() - self.started_at
        requests = snapshot.counter("server.requests")
        hits = snapshot.counter("batch.cache.hit")
        misses = snapshot.counter("batch.cache.miss")
        lookups = hits + misses
        latency = {}
        prefix = "server.request_ms."
        for name, histogram in sorted(snapshot.histograms.items()):
            if not name.startswith(prefix):
                continue
            quantiles = histogram.quantiles()
            latency[name[len(prefix):]] = {
                "count": histogram.count,
                "mean_ms": histogram.mean,
                "p50_ms": quantiles["p50"],
                "p95_ms": quantiles["p95"],
                "p99_ms": quantiles["p99"],
                "max_ms": histogram.maximum,
            }
        return {
            "version": __version__,
            "protocol": protocol.PROTOCOL_VERSION,
            "pid": os.getpid(),
            "uptime_s": uptime,
            "requests": requests,
            "request_rate_rps": requests / uptime if uptime else 0.0,
            "errors": snapshot.counter("server.errors"),
            "shed": snapshot.counter("server.shed"),
            "slow_requests": snapshot.counter("server.slow_requests"),
            "budget_clamps": snapshot.counter("server.budget_clamped"),
            "pool_rebuilds": snapshot.counter("server.pool_rebuilds"),
            "protocol_errors": snapshot.counter("server.protocol_errors"),
            "socket_takeovers": snapshot.counter("server.socket_takeovers"),
            "draining": self.draining.is_set(),
            "inflight": self.inflight,
            "max_inflight": MAX_INFLIGHT,
            "slow_ms": self.slow_ms,
            "jobs": self.jobs,
            "pool_alive": self.pool_alive(),
            "cache": self.cache is not None,
            "cache_hit_rate": hits / lookups if lookups else None,
            "cache_hits": hits,
            "cache_misses": misses,
            "watch_rounds": snapshot.counter("server.watch_rounds"),
            "watch_stat_errors": snapshot.counter("watch.stat_errors"),
            "latency_ms": latency,
            "metrics": snapshot.to_dict(),
        }

    # -- lifecycle ----------------------------------------------------------

    def _initiate_shutdown(self) -> None:
        """Stop the socket loop from a handler thread (shutdown() blocks
        until serve_forever returns, so it must not run on the handler)."""
        server = self._server
        if server is not None:
            threading.Thread(target=server.shutdown, daemon=True).start()

    def note_protocol_error(self, exc: Exception) -> None:
        """Account a wire-level fault (oversized/stalled/garbage frame)."""
        self.recorder.absorb(
            MetricsSnapshot(counters={"server.protocol_errors": 1})
        )
        self.log.warning(
            "request.protocol_error",
            error=str(exc),
            error_type=type(exc).__name__,
        )

    def drain(self) -> bool:
        """Graceful stop: refuse new requests, wait for in-flight ones
        up to :data:`DRAIN_DEADLINE` seconds, then shut the loop down.
        Returns False when the hard deadline abandoned stragglers
        (crash-only: the hard stop is always safe — no request is
        half-answered, its connection just closes)."""
        already = self.draining.is_set()
        self.draining.set()
        if not already:
            self.recorder.absorb(
                MetricsSnapshot(counters={"server.drains": 1})
            )
            self.log.info(
                "server.drain.start",
                inflight=self.inflight,
                deadline_s=DRAIN_DEADLINE,
            )
        expires = time.monotonic() + DRAIN_DEADLINE
        while self.inflight > 0 and time.monotonic() < expires:
            time.sleep(0.01)
        forced = self.inflight > 0
        if forced:
            self.recorder.absorb(
                MetricsSnapshot(counters={"server.drain_forced": 1})
            )
            self.log.warning(
                "server.drain.deadline",
                abandoned=self.inflight,
                deadline_s=DRAIN_DEADLINE,
            )
        else:
            self.log.info("server.drain.done")
        self._initiate_shutdown()
        return not forced

    def start_watcher(self, inputs: List[str], interval: float = 1.0) -> threading.Thread:
        """Watch mode: poll ``inputs`` for new/modified scripts and
        re-analyze them through the batch driver (with the daemon's pool
        and cache) as they change, keeping the result cache warm so the
        *next* client request over those files is all cache hits.
        Deletions are logged by the watcher (``watch.deleted``)."""
        watcher = Watcher(inputs, log=self.log)

        def loop() -> None:
            while not self._watcher_stop.wait(interval):
                round_recorder = MetricsRecorder()
                try:
                    with use_recorder(round_recorder):
                        changed, _ = watcher.scan()
                        if changed:
                            round_recorder.count("server.watch_rounds")
                            round_recorder.count("server.watch_files", len(changed))
                            config = self._clamped(BatchConfig())
                            with round_recorder.span("server.watch"):
                                run_batch(
                                    changed,
                                    config=config,
                                    jobs=self.jobs,
                                    cache=self.cache,
                                    pool=self._get_pool(),
                                )
                            self.log.info(
                                "watch.scan",
                                changed=len(changed),
                                paths=changed[:20],
                            )
                except Exception as exc:  # noqa: BLE001 — the watcher must outlive one bad round
                    round_recorder.count("watch.errors")
                    self.log.error(
                        "watch.error",
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
                snapshot = round_recorder.snapshot()
                if snapshot.counters or snapshot.histograms:
                    self.recorder.absorb(snapshot)

        thread = threading.Thread(target=loop, name="repro-watch", daemon=True)
        thread.start()
        return thread

    def serve_forever(self) -> None:
        """Bind the socket and serve until ``shutdown`` (op or signal).

        An existing socket file is probed first: a live daemon raises
        :class:`~.supervise.SocketInUse` instead of having its socket
        stolen; a dead daemon's leftover is evicted with a
        ``server.socket_takeover`` event."""
        parent = os.path.dirname(self.socket_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        supervise.ensure_socket_free(
            self.socket_path, log=self.log, recorder=self.recorder
        )
        self._server = _SocketServer(self.socket_path, self)
        self.log.info(
            "server.start",
            socket=self.socket_path,
            pid=os.getpid(),
            version=__version__,
            jobs=self.jobs,
            max_inflight=MAX_INFLIGHT,
        )
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self.close()

    def close(self) -> None:
        self._watcher_stop.set()
        server, self._server = self._server, None
        if server is not None:
            server.server_close()
            self.log.info(
                "server.stop",
                requests=self.recorder.counter("server.requests"),
                uptime_s=round(time.monotonic() - self.started_at, 3),
            )
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=False)
                self._pool = None
        try:
            os.unlink(self.socket_path)
        except OSError:
            pass


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a loop of request frame -> response frame.

    The exactly-one-envelope invariant lives here: every frame that
    parses gets exactly one response from ``handle_request`` (which
    never raises), and every wire-level fault gets either one error
    envelope (when the peer can still read) or a silent close (when it
    is gone) — never a hang, never a second answer.
    """

    def handle(self) -> None:
        service: AnalysisServer = self.server.service
        reader = protocol.FrameReader(self.connection)
        while True:
            try:
                frame = reader.read_frame()
            except (
                protocol.FrameTooLarge,
                protocol.PartialFrameTimeout,
            ) as exc:
                # answer, then close: the stream cannot be resynced
                service.note_protocol_error(exc)
                self._respond(protocol.error(str(exc)))
                return
            except protocol.TruncatedFrame as exc:
                service.note_protocol_error(exc)
                return  # the peer is gone; no envelope owed
            if frame is None:
                return  # clean close between frames
            try:
                message = protocol.decode(frame)
            except protocol.ProtocolError as exc:
                # malformed JSON: answer and keep serving — the stream
                # is resynced at the newline
                service.note_protocol_error(exc)
                if not self._respond(protocol.error(str(exc))):
                    return
                continue
            response = service.handle_request(message)
            if not self._respond(response):
                return
            if message.get("op") == "shutdown":
                return

    def _respond(self, envelope: dict) -> bool:
        """Write one response frame; False when the peer is gone."""
        try:
            self.wfile.write(protocol.encode(envelope))
            self.wfile.flush()
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False


class _SocketServer(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    """Threaded Unix-socket server (composed by hand:
    ``ThreadingUnixStreamServer`` only exists on Python >= 3.12)."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, socket_path: str, service: AnalysisServer):
        self.service = service
        super().__init__(socket_path, _Handler)
        # forked pool workers must not inherit the listener: after a
        # kill -9 they would keep the stale socket accepting connections
        # nobody answers, and clients would wait out their read timeout
        # instead of falling back inline at once
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _close_in_child(ref))


def _close_in_child(ref) -> None:
    server = ref()
    if server is not None:
        server.socket.close()


def serve(
    socket_path: Optional[str] = None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    no_cache: bool = False,
    watch: Optional[List[str]] = None,
    interval: float = 1.0,
    recorder: Optional[MetricsRecorder] = None,
    log: Optional[OpsLogger] = None,
    slow_ms: float = DEFAULT_SLOW_MS,
    install_signals: bool = False,
) -> AnalysisServer:
    """Build, warm, and run a daemon (the ``repro-served`` body).

    Blocks until shutdown; returns the server object (tests inspect it).
    ``install_signals=True`` (CLI only — must run on the main thread)
    maps ``SIGTERM`` to a graceful drain with the
    :data:`DRAIN_DEADLINE` hard stop.
    """
    server = AnalysisServer(
        socket_path=socket_path,
        jobs=jobs,
        cache=None if no_cache else ResultCache(cache_dir),
        recorder=recorder,
        log=log,
        slow_ms=slow_ms,
    )
    server.warm()
    if watch:
        server.start_watcher(watch, interval=interval)
    if install_signals:
        import signal

        def _on_sigterm(signum, frame):
            threading.Thread(target=server.drain, daemon=True).start()

        signal.signal(signal.SIGTERM, _on_sigterm)
    server.serve_forever()
    return server
