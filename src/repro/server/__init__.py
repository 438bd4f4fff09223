"""The resident analysis server: ahead-of-time analysis at
just-in-time latency.

A long-lived daemon (:mod:`.daemon`, CLI ``repro-served``) keeps the
spec registry, the compiled-DFA caches, and the persistent result cache
warm in one process and answers analyze/batch requests over a Unix
socket speaking line-delimited JSON (:mod:`.protocol`).  The thin
client (:mod:`.client`, CLI ``repro-analyze --server``) falls back to
inline analysis when no daemon is running, and :mod:`.watch` keeps the
cache warm as files change on disk.

Failure handling is crash-only and has one path.  A daemon that dies
is started again: startup (:mod:`.supervise`) evicts the stale socket
file after proving nobody live owns it, and the on-disk result cache
makes the new daemon warm at once.  A client that loses its daemon
sends nothing twice; it falls back inline, and a per-socket circuit
breaker keeps later requests from re-probing a dead socket.  The
daemon's and client's limits are fixed module constants.
"""

from .client import (
    CircuitBreaker,
    ServerClient,
    ServerError,
    ServerUnavailable,
    reset_breakers,
    server_available,
)
from .daemon import AnalysisServer, serve
from .protocol import PROTOCOL_VERSION, default_socket_path
from .supervise import SocketInUse, ensure_socket_free, probe_socket
from .watch import Watcher

__all__ = [
    "AnalysisServer",
    "CircuitBreaker",
    "PROTOCOL_VERSION",
    "ServerClient",
    "ServerError",
    "ServerUnavailable",
    "SocketInUse",
    "Watcher",
    "default_socket_path",
    "ensure_socket_free",
    "probe_socket",
    "reset_breakers",
    "serve",
    "server_available",
]
