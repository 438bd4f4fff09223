"""Wire protocol for the resident analysis server.

One connection carries a sequence of requests, each a single line of
JSON terminated by ``\\n``; every request gets exactly one response line.
Line-delimited JSON keeps the protocol trivially debuggable
(``echo '{"op":"ping"}' | nc -U ...``) and framing-free: no length
prefixes, no partial-read state machines.

The daemon reads frames through :class:`FrameReader`, which enforces
the three properties a hostile or broken client must not be able to
violate:

- **max frame size** — a frame longer than :data:`MAX_LINE_BYTES`
  raises :class:`FrameTooLarge` before the daemon buffers it whole;
- **partial-frame deadline** — a client that sends half a frame and
  stalls past :data:`FRAME_DEADLINE` gets :class:`PartialFrameTimeout`
  instead of pinning a handler thread forever;
- **truncated frames** — a connection closed mid-frame raises
  :class:`TruncatedFrame` rather than feeding garbage downstream.

Requests are objects with an ``op`` field:

- ``{"op": "ping"}`` — liveness + version handshake
- ``{"op": "analyze", "source": ..., "config": {...}}`` — one script
  (by ``source`` text or by ``path``); response carries the serialized
  :class:`~repro.analysis.report.Report` plus a ``cached`` flag
- ``{"op": "optimize", "source": ..., "config": {...}}`` — one
  script's optimization plan (by ``source`` text or by ``path``);
  response carries the serialized
  :class:`~repro.analysis.optimize.OptimizePlan` under ``plan`` plus a
  ``cached`` flag (plans are content-addressed in the same result
  cache, salted with the plan schema version)
- ``{"op": "batch", "inputs": [...], "config": {...}, "of": "analyze"}``
  — files, directories, and glob patterns, exactly like
  ``repro-analyze``'s positional arguments; ``of`` names the op run on
  each file (``analyze``, the default, or ``optimize``) and the
  response carries per-file serialized reports (or plans)
- ``{"op": "stats"}`` — the operational picture: uptime, request
  rates, per-op latency quantiles, cache hit rate, pool/shed/clamp
  state, and a metrics snapshot of the daemon's totals.  There is no
  separate ``metrics`` op (version 1 had one; its removal made version
  2): ``repro-top --metrics`` renders Prometheus text from this one
  response
- ``{"op": "shutdown"}`` — acknowledge, then stop serving

Responses are ``{"ok": true, "result": ...}`` or
``{"ok": false, "error": "..."}``.  Every response envelope also
carries *additive* observability fields (same protocol version — old
clients simply ignore them):

- ``request_id`` — the server-assigned id for this request; every log
  event and metric attribution uses it
- ``elapsed_ms`` — server-side wall time for the request
- ``metrics`` — the request-scoped
  :class:`~repro.obs.MetricsSnapshot` as a dict (where *this* request
  spent its time: symex counters, cache hits, worker metrics folded in
  across the pool boundary).  Suppressed when the request carries
  ``"telemetry": false``.
- ``shed: true`` — on error responses produced by load shedding

The server never closes the connection in response to a malformed
request — it answers with an error so interactive clients can recover.
"""

from __future__ import annotations

import json
import os
import socket
import tempfile
import time
from dataclasses import fields
from typing import IO, Optional

#: bump on any incompatible request/response shape change
PROTOCOL_VERSION = 2

#: refuse request lines longer than this (a malformed or malicious
#: client must not balloon daemon memory); generous enough for the
#: largest real script corpora sent inline
MAX_LINE_BYTES = 64 * 1024 * 1024

#: a started frame must complete within this many seconds
FRAME_DEADLINE = 30.0

#: environment override for the rendezvous point
SOCKET_ENV = "REPRO_SERVER_SOCKET"


class ProtocolError(Exception):
    """A malformed frame (bad JSON, missing op, oversized line)."""


class FrameTooLarge(ProtocolError):
    """A frame exceeded :data:`MAX_LINE_BYTES`; the connection cannot
    be resynchronized and must be closed after the error response."""


class PartialFrameTimeout(ProtocolError):
    """A frame was started but not finished within the read deadline."""


class TruncatedFrame(ProtocolError):
    """The peer closed (or reset) the connection mid-frame."""


def default_socket_path() -> str:
    """The rendezvous socket path: ``$REPRO_SERVER_SOCKET`` if set, else
    a per-user path under ``$XDG_RUNTIME_DIR`` or the temp directory."""
    override = os.environ.get(SOCKET_ENV)
    if override:
        return override
    runtime_dir = os.environ.get("XDG_RUNTIME_DIR")
    if runtime_dir and os.path.isdir(runtime_dir):
        return os.path.join(runtime_dir, "repro-served.sock")
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-served-{uid}.sock")


def encode(message: dict) -> bytes:
    """One message as a wire frame (compact JSON + newline)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode(line: bytes) -> dict:
    """Parse one wire frame; raises :class:`ProtocolError` on garbage."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame exceeds {MAX_LINE_BYTES} bytes")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON frame: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("frame is not a JSON object")
    return message


def read_message(stream: IO[bytes]) -> Optional[dict]:
    """The next message from a socket file, or None at EOF."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    return decode(line)


class FrameReader:
    """Incremental newline-delimited frame reader over a raw socket.

    Unlike ``rfile.readline``, this reader distinguishes the failure
    modes the daemon must handle differently: oversized frames
    (:class:`FrameTooLarge` — answer and close), stalled partial frames
    (:class:`PartialFrameTimeout` — answer and close), and truncated
    frames (:class:`TruncatedFrame` — peer is gone, just close).  An
    idle connection waits for its next frame without a deadline.
    ``sock`` is anything with ``settimeout``/``recv`` (a real socket or
    a test double).
    """

    CHUNK = 1 << 16

    def __init__(self, sock, max_bytes: Optional[int] = None):
        self._sock = sock
        # read the module global at construction time so tests (and
        # embedders) can shrink the limit for connections made later
        self.max_bytes = MAX_LINE_BYTES if max_bytes is None else max_bytes
        self._buffer = bytearray()
        self._eof = False

    def read_frame(self) -> Optional[bytes]:
        """The next complete frame (without the trailing newline), or
        ``None`` at a clean EOF between frames.  The time from a frame's
        first byte to its terminating newline is bounded by
        :data:`FRAME_DEADLINE`."""
        started: Optional[float] = None
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                frame = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                if len(frame) > self.max_bytes:
                    raise FrameTooLarge(
                        f"frame exceeds {self.max_bytes} bytes"
                    )
                return frame
            if len(self._buffer) > self.max_bytes:
                raise FrameTooLarge(f"frame exceeds {self.max_bytes} bytes")
            if self._eof:
                if self._buffer:
                    self._buffer.clear()
                    raise TruncatedFrame("connection closed mid-frame")
                return None
            timeout = None
            if self._buffer:
                if started is None:
                    started = time.monotonic()
                timeout = FRAME_DEADLINE - (time.monotonic() - started)
                if timeout <= 0:
                    raise _stalled()
            try:
                self._sock.settimeout(timeout)
                chunk = self._sock.recv(self.CHUNK)
            except socket.timeout as exc:
                # only a started frame reads under a deadline
                raise _stalled() from exc
            except OSError as exc:
                if self._buffer:
                    self._buffer.clear()
                    raise TruncatedFrame(
                        f"connection lost mid-frame: {exc}"
                    ) from exc
                return None
            if not chunk:
                self._eof = True
            else:
                self._buffer.extend(chunk)


def _stalled() -> PartialFrameTimeout:
    return PartialFrameTimeout(
        f"partial frame stalled past the {FRAME_DEADLINE:g}s read deadline"
    )


def ok(result) -> dict:
    return {"ok": True, "result": result}


def error(message: str) -> dict:
    return {"ok": False, "error": message}


# ---------------------------------------------------------------------------
# Config marshalling (BatchConfig <-> wire dict)
# ---------------------------------------------------------------------------


def config_to_wire(config) -> dict:
    """A :class:`~repro.analysis.pipeline.BatchConfig` as a wire dict
    (only non-default fields, so old servers tolerate new clients)."""
    wire = {}
    for field in fields(config):
        value = getattr(config, field.name)
        if value != field.default:
            wire[field.name] = list(value) if isinstance(value, tuple) else value
    return wire


def config_from_wire(data: Optional[dict]):
    """The inverse of :func:`config_to_wire`; unknown fields ignored."""
    from ..analysis.pipeline import BatchConfig

    names = {field.name for field in fields(BatchConfig)}
    return BatchConfig(
        **{
            name: tuple(value) if isinstance(value, list) else value
            for name, value in (data or {}).items()
            if name in names
        }
    )
