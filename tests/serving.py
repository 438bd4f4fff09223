"""Waiting for an in-process analysis daemon to serve (tests and
benchmarks start ``AnalysisServer.serve_forever`` on a thread)."""

import time

import pytest

from repro.server import ServerClient, ServerError, ServerUnavailable
from repro.server.client import CircuitBreaker


def wait_until_serving(socket_path: str, timeout: float = 5.0) -> None:
    """Return once the daemon on ``socket_path`` answers a ping.

    The socket file appears at ``bind``, before ``listen``, and a client
    that connects in between gets ``ECONNREFUSED``: the file proves
    nothing.  The pings go through a breaker of their own, so refusals
    while the daemon starts never open the socket's shared breaker."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with ServerClient(socket_path, breaker=CircuitBreaker()) as client:
                client.ping()
            return
        except (ServerUnavailable, ServerError):
            if time.monotonic() > deadline:
                pytest.fail(f"daemon on {socket_path} never answered a ping")
            time.sleep(0.01)
