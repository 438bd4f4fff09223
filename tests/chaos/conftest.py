"""Shared fixtures for the chaos suite.

Faults are injected through the seams in :mod:`.faults` and fire
deterministically.  The daemon fixtures mirror ``tests/server`` (real
Unix socket, tmp-path cache) but expose the pieces chaos tests need to
reach: the server object, its socket, its recorder, and its cache
directory.
"""

import os
import threading
import time

import pytest

from repro.analysis import cache as cache_mod
from repro.analysis.cache import ResultCache
from repro.obs import TraceRecorder
from repro.server import (
    AnalysisServer,
    ServerClient,
    ServerError,
    ServerUnavailable,
    reset_breakers,
)


def _pool_available() -> bool:
    import concurrent.futures as futures

    try:
        with futures.ProcessPoolExecutor(max_workers=1) as pool:
            return pool.submit(int, 1).result(timeout=60) == 1
    except Exception:
        return False


needs_pool = pytest.mark.skipif(
    not _pool_available(), reason="process pools unavailable in this sandbox"
)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    """No breaker state or warning latch leaks across tests."""
    reset_breakers()
    monkeypatch.setattr(cache_mod, "_write_warned", False)
    yield
    reset_breakers()


def start_daemon(tmp_path, jobs=1, cache=None, **kwargs):
    """A running AnalysisServer on a tmp socket; returns (server, stop)."""
    socket_path = str(tmp_path / "served.sock")
    server = AnalysisServer(
        socket_path=socket_path,
        jobs=jobs,
        cache=cache,
        recorder=TraceRecorder(),
        **kwargs,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not os.path.exists(socket_path):
        if time.monotonic() > deadline:
            pytest.fail("daemon socket never appeared")
        time.sleep(0.01)

    def stop():
        if thread.is_alive():
            try:
                ServerClient(socket_path).shutdown()
            except (ServerUnavailable, ServerError):
                pass
            thread.join(timeout=5.0)

    return server, stop


@pytest.fixture()
def daemon(tmp_path):
    """A plain jobs=1 daemon with a tmp cache (the common case)."""
    cache = ResultCache(str(tmp_path / "cache"))
    server, stop = start_daemon(tmp_path, cache=cache)
    yield server
    stop()


def corpus(tmp_path, n=3, marker=""):
    """n tiny scripts; ``marker`` is embedded in the first source so a
    marker-matched fault (a worker kill) hits exactly that file."""
    scripts = tmp_path / "scripts"
    scripts.mkdir(exist_ok=True)
    for index in range(n):
        tag = marker if marker and index == 0 else ""
        (scripts / f"s{index}.sh").write_text(f"echo {tag}run-{index}\n")
    return str(scripts)
