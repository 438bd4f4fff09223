"""The faults the chaos suite injects, each through a seam the program
already has, so the shipped request paths carry no injection hooks:

- a pool worker killed mid-batch: :func:`kill_marked_worker` stands in
  for ``batch._pool_worker``;
- a stalled daemon: :func:`slowed` wraps ``daemon.run_source``;
- a full disk and torn cache entries: :class:`FaultyCache` overrides
  ``ResultCache._write``;
- hostile byte streams: :func:`send_raw` writes below the client's
  framing.

Every fault fires on every eligible call; none is random.
"""

import errno
import json
import os
import socket
import time

from repro.analysis import batch
from repro.analysis.cache import ResultCache

#: a pool worker that draws a source holding this marker dies
MARKER = "CHAOS-KILL-ME"

_REAL_WORKER = batch._pool_worker


def kill_marked_worker(item):
    """``batch._pool_worker`` whose process dies, as an OOM-kill would
    (``os._exit``, no unwinding), on a marked script source.  It is
    module-level, so it crosses the pool by qualified name and reaches
    the workers under every start method."""
    _, args, _ = item
    if MARKER in args[0]:
        os._exit(137)
    return _REAL_WORKER(item)


def slowed(run_source, seconds: float):
    """``run_source`` that first sleeps ``seconds`` on analyze requests;
    every other op answers at once."""

    def run(op, *args, **kwargs):
        if op == "analyze":
            time.sleep(seconds)
        return run_source(op, *args, **kwargs)

    return run


class FaultyCache(ResultCache):
    """A result cache whose writes fail: ``enospc`` raises as a full
    disk does, ``torn`` keeps the first third of each entry."""

    def __init__(self, root: str, fault: str):
        super().__init__(root)
        self.fault = fault

    def _write(self, directory: str, path: str, payload: str) -> None:
        if self.fault == "enospc":
            raise OSError(errno.ENOSPC, "No space left on device", path)
        super()._write(directory, path, payload)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload[: max(1, len(payload) // 3)])


def send_raw(socket_path: str, payload: bytes, timeout: float = 5.0) -> bytes:
    """Send exactly ``payload``, half-close, and return every byte the
    daemon sends back until it closes the connection (or ``timeout``
    passes with no further data)."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout)
    try:
        sock.connect(socket_path)
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        return read_until_closed(sock)
    finally:
        sock.close()


def read_until_closed(sock: socket.socket) -> bytes:
    """Every byte ``sock`` yields until EOF or its timeout."""
    chunks = []
    while True:
        try:
            chunk = sock.recv(1 << 16)
        except socket.timeout:
            break
        if not chunk:
            break
        chunks.append(chunk)
    return b"".join(chunks)


def response_lines(raw: bytes) -> list:
    """The response envelopes in a raw byte stream, one per line."""
    return [json.loads(line) for line in raw.split(b"\n") if line.strip()]
