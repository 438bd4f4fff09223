"""Client failure handling: one attempt per request, then the inline
fallback; fixed connect/read/ping timeouts; and the per-socket circuit
breaker."""

import json
import socket
import threading
import time

import pytest

from repro import cli
from repro.obs import TraceRecorder, use_recorder
from repro.server import ServerClient, ServerUnavailable, client as client_mod
from repro.server import daemon as daemon_mod
from repro.server.client import CircuitBreaker, breaker_for, reset_breakers

from .faults import slowed


class FlakyListener:
    """A Unix-socket listener that slams the door on the first
    ``failures`` connections (accept, then close before answering) and
    serves a canned ok-envelope afterwards — the shape of a daemon
    dying mid-conversation."""
    def __init__(self, socket_path: str, failures: int):
        self.socket_path = socket_path
        self.failures = failures
        self.connections = 0
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(socket_path)
        self._sock.listen(8)
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            self.connections += 1
            if self.connections <= self.failures:
                conn.close()  # mid-conversation death
                continue
            try:
                conn.recv(1 << 16)
                conn.sendall(
                    json.dumps(
                        {"ok": True, "result": {"answered": True}}
                    ).encode()
                    + b"\n"
                )
            except OSError:
                pass
            finally:
                conn.close()

    def close(self):
        self._stop.set()
        self._sock.close()


class TestRetries:
    """There are none: a request is sent once, and a lost daemon means
    the inline fallback."""

    def test_mid_conversation_loss_is_not_retried(self, tmp_path):
        path = str(tmp_path / "flaky.sock")
        listener = FlakyListener(path, failures=1)
        recorder = TraceRecorder()
        try:
            client = ServerClient(path, breaker=CircuitBreaker())
            with use_recorder(recorder):
                with pytest.raises(ServerUnavailable):
                    client.request({"op": "ping"})
            client.close()
        finally:
            listener.close()
        assert listener.connections == 1
        snapshot = recorder.snapshot()
        assert snapshot.counter("server.client.failures") == 1
        assert snapshot.counter("server.client.retries") == 0

    def test_connect_refusal_is_not_retried(self, tmp_path):
        recorder = TraceRecorder()
        client = ServerClient(str(tmp_path / "nobody.sock"), breaker=CircuitBreaker())
        with use_recorder(recorder):
            with pytest.raises(ServerUnavailable):
                client.request({"op": "ping"})
        assert recorder.snapshot().counter("server.client.failures") == 1

    def test_shutdown_is_never_retried(self, tmp_path):
        path = str(tmp_path / "flaky.sock")
        listener = FlakyListener(path, failures=10)
        try:
            client = ServerClient(path, breaker=CircuitBreaker())
            with use_recorder(TraceRecorder()):
                with pytest.raises(ServerUnavailable):
                    client.request({"op": "shutdown"})
            client.close()
        finally:
            listener.close()
        assert listener.connections == 1


class TestCircuitBreaker:
    def test_opens_after_threshold_and_fast_fails(self):
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)  # threshold 3, cooldown 5s
        recorder = TraceRecorder()
        with use_recorder(recorder):
            for _ in range(3):
                assert breaker.allow()
                breaker.record_failure()
            assert breaker.state == "open"
            assert not breaker.allow()  # fast fail, no socket touched
        snapshot = recorder.snapshot()
        assert snapshot.counter("server.client.breaker_open") == 1
        assert snapshot.counter("server.client.breaker_fastfail") == 1

    def test_half_opens_after_cooldown_then_closes_on_success(self, monkeypatch):
        monkeypatch.setattr(client_mod, "BREAKER_THRESHOLD", 1)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            breaker.record_failure()
            assert not breaker.allow()
            clock.advance(5.1)
            assert breaker.allow()  # the probe
            assert breaker.state == "half-open"
            assert not breaker.allow()  # only one probe at a time
            breaker.record_success()
            assert breaker.state == "closed"
            assert breaker.allow()
        assert recorder.snapshot().counter("server.client.breaker_halfopen") == 1

    def test_half_open_failure_reopens(self, monkeypatch):
        monkeypatch.setattr(client_mod, "BREAKER_THRESHOLD", 2)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        with use_recorder(TraceRecorder()):
            breaker.record_failure()
            breaker.record_failure()
            clock.advance(5.1)
            assert breaker.allow()
            breaker.record_failure()  # the probe also failed
            assert breaker.state == "open"
            assert not breaker.allow()

    def test_open_breaker_short_circuits_requests(self, tmp_path, monkeypatch):
        monkeypatch.setattr(client_mod, "BREAKER_THRESHOLD", 1)
        monkeypatch.setattr(client_mod, "BREAKER_COOLDOWN", 60.0)
        clock = FakeClock()
        breaker = CircuitBreaker(clock=clock)
        with use_recorder(TraceRecorder()):
            breaker.record_failure()
            client = ServerClient(str(tmp_path / "x.sock"), breaker=breaker)
            with pytest.raises(ServerUnavailable) as excinfo:
                client.request({"op": "ping"})
        assert "circuit breaker open" in str(excinfo.value)

    def test_registry_is_per_socket_path(self):
        reset_breakers()
        a = breaker_for("/tmp/a.sock")
        b = breaker_for("/tmp/b.sock")
        assert a is not b
        assert breaker_for("/tmp/a.sock") is a
        reset_breakers()
        assert breaker_for("/tmp/a.sock") is not a


#: the stall on analyze requests, well past the patched read timeout
_DELAY_S = 1.0


def _delay_analyze(monkeypatch):
    monkeypatch.setattr(
        daemon_mod, "run_source", slowed(daemon_mod.run_source, _DELAY_S)
    )


def _settle(daemon, timeout=10.0):
    """Wait until the daemon has finished every request it accepted."""
    deadline = time.monotonic() + timeout
    while daemon.inflight or not daemon.recorder.snapshot().counter("server.op.analyze"):
        assert time.monotonic() < deadline, "delayed request never finished"
        time.sleep(0.02)


class TestTimeouts:
    def test_slow_daemon_trips_read_timeout_not_ping(self, daemon, monkeypatch):
        # a stall on analyze holds the answer past the client's read
        # timeout; pings run under their own deadline, undelayed
        monkeypatch.setattr(client_mod, "READ_TIMEOUT", 0.2)
        _delay_analyze(monkeypatch)
        client = ServerClient(daemon.socket_path, breaker=CircuitBreaker())
        with use_recorder(TraceRecorder()):
            with pytest.raises(ServerUnavailable):
                client.analyze_source("echo hi\n")
        client.close()
        probe = ServerClient(daemon.socket_path, breaker=CircuitBreaker())
        with use_recorder(TraceRecorder()):
            assert probe.ping()["pid"]
        probe.close()

    def test_read_timeout_sends_the_request_once(self, daemon, monkeypatch):
        # the daemon is still busy with the request when the client
        # gives up; a second copy would only queue behind the first
        monkeypatch.setattr(client_mod, "READ_TIMEOUT", 0.3)
        _delay_analyze(monkeypatch)
        client = ServerClient(daemon.socket_path, breaker=CircuitBreaker())
        with use_recorder(TraceRecorder()):
            with pytest.raises(ServerUnavailable):
                client.run("analyze", "echo once\n")
        client.close()
        _settle(daemon)
        assert daemon.recorder.snapshot().counter("server.op.analyze") == 1

    def test_cli_falls_back_inline_once_byte_identical(
        self, daemon, monkeypatch, tmp_path, capsys
    ):
        script = tmp_path / "job.sh"
        script.write_text('if [ "$#" -lt 1 ]; then exit 1; fi\nrm -rf "$1"/\n')
        inline_code = cli.main(["analyze", str(script)])
        inline = capsys.readouterr()

        monkeypatch.setattr(client_mod, "READ_TIMEOUT", 0.3)
        _delay_analyze(monkeypatch)
        code = cli.main(
            ["analyze", "--server", "--socket", daemon.socket_path, str(script)]
        )
        served = capsys.readouterr()
        _settle(daemon)
        assert code == inline_code
        assert served.out == inline.out
        fallback = [line for line in served.err.splitlines() if "analyzing inline" in line]
        assert len(fallback) == 1
        assert daemon.recorder.snapshot().counter("server.op.analyze") == 1


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds: float):
        self.now += seconds
