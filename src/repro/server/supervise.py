"""Crash-only startup for the resident analysis daemon.

Crash-only software (Candea & Fox) treats a crash as an unremarkable
way to stop: the only recovery path is the normal startup path, so
startup must cope with everything a crash leaves behind.  The daemon
never restarts itself; a crashed daemon is started again, and it
answers warm at once because the on-disk
:class:`~repro.analysis.cache.ResultCache` survives the crash.  Its
clients fall back to inline analysis in the meantime.

What startup has to cope with is the socket.  A daemon killed with
``kill -9`` leaves its Unix socket file behind, and a naive successor
either refuses to bind or — worse — blindly unlinks a socket a *live*
daemon is still serving.  :func:`ensure_socket_free` probes the socket
with a short ping (:data:`PROBE_TIMEOUT`): a live daemon makes the bind
fail loudly (:class:`SocketInUse`); a dead or wedged one is evicted
with an ops-log event and a ``server.socket_takeovers`` count.
"""

from __future__ import annotations

import errno
import os
import socket
from typing import Optional

from ..obs import MetricsSnapshot, OpsLogger
from . import protocol

#: how long the stale-socket liveness probe waits for a ping answer;
#: a daemon too wedged to answer a ping in this window is treated as
#: dead and evicted
PROBE_TIMEOUT = 0.5


class SocketInUse(OSError):
    """A live daemon is already serving the socket."""

    def __init__(self, socket_path: str):
        super().__init__(
            errno.EADDRINUSE,
            f"a live analysis daemon is already serving {socket_path}",
        )
        self.socket_path = socket_path


def probe_socket(socket_path: str) -> str:
    """Liveness of whatever owns ``socket_path``: ``"absent"`` (no
    file), ``"alive"`` (a daemon answered bytes to a ping), or
    ``"dead"`` (stale file: nobody listening, or a listener too wedged
    to produce a single response byte within :data:`PROBE_TIMEOUT`)."""
    if not os.path.exists(socket_path):
        return "absent"
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(PROBE_TIMEOUT)
    try:
        sock.connect(socket_path)
        sock.sendall(protocol.encode({"op": "ping", "telemetry": False}))
        return "alive" if sock.recv(1) else "dead"
    except OSError:
        return "dead"
    finally:
        sock.close()


def ensure_socket_free(
    socket_path: str,
    log: Optional[OpsLogger] = None,
    recorder=None,
) -> bool:
    """Make ``socket_path`` bindable: no-op when absent, raise
    :class:`SocketInUse` when a live daemon answers, evict the stale
    file otherwise.  Returns True when a takeover happened."""
    status = probe_socket(socket_path)
    if status == "absent":
        return False
    if status == "alive":
        raise SocketInUse(socket_path)
    try:
        os.unlink(socket_path)
    except FileNotFoundError:
        pass
    if log is not None:
        log.warning("server.socket_takeover", socket=socket_path)
    if recorder is not None:
        recorder.absorb(
            MetricsSnapshot(counters={"server.socket_takeovers": 1})
        )
    return True
