"""Crash-only lifecycle: stale-socket takeover, graceful drain, and the
full kill-9 stories — mid-request fallback and warm-cache recovery —
against real daemon subprocesses."""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.obs import TraceRecorder
from repro.server import (
    AnalysisServer,
    ServerClient,
    ServerError,
    ServerUnavailable,
    SocketInUse,
    ensure_socket_free,
    probe_socket,
)
from repro.server import daemon as daemon_mod
from repro.server.client import CircuitBreaker

from .conftest import corpus, needs_pool, start_daemon

REPO_ROOT = Path(__file__).resolve().parents[2]


def _stale_socket(tmp_path) -> str:
    """A socket file nobody is listening on (the kill -9 residue)."""
    path = str(tmp_path / "stale.sock")
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.bind(path)
    sock.close()  # bound but never listening: connects are refused
    assert os.path.exists(path)
    return path


class TestSocketTakeover:
    def test_probe_states(self, tmp_path, daemon):
        assert probe_socket(str(tmp_path / "nothing.sock")) == "absent"
        assert probe_socket(_stale_socket(tmp_path)) == "dead"
        assert probe_socket(daemon.socket_path) == "alive"

    def test_dead_socket_is_evicted(self, tmp_path):
        path = _stale_socket(tmp_path)
        recorder = TraceRecorder()
        assert ensure_socket_free(path, recorder=recorder) is True
        assert not os.path.exists(path)
        assert recorder.snapshot().counter("server.socket_takeovers") == 1

    def test_absent_socket_is_a_noop(self, tmp_path):
        assert ensure_socket_free(str(tmp_path / "nothing.sock")) is False

    def test_live_daemon_is_not_stolen(self, daemon):
        with pytest.raises(SocketInUse):
            ensure_socket_free(daemon.socket_path)
        # and the daemon still answers
        with ServerClient(daemon.socket_path) as client:
            assert client.ping()["pid"] == os.getpid()

    def test_daemon_boots_over_a_stale_socket(self, tmp_path):
        path = _stale_socket(tmp_path)
        server = AnalysisServer(socket_path=path, jobs=1, recorder=TraceRecorder())
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            deadline = time.monotonic() + 5.0
            while probe_socket(path) != "alive":
                assert time.monotonic() < deadline, "takeover never completed"
                time.sleep(0.01)
            assert (
                server.recorder.snapshot().counter("server.socket_takeovers")
                == 1
            )
        finally:
            try:
                ServerClient(path).shutdown()
            except (ServerUnavailable, ServerError):
                pass
            thread.join(timeout=5.0)

    def test_second_daemon_refuses_to_start(self, daemon):
        second = AnalysisServer(
            socket_path=daemon.socket_path, jobs=1, recorder=TraceRecorder()
        )
        with pytest.raises(SocketInUse):
            second.serve_forever()
        # the incumbent is untouched
        with ServerClient(daemon.socket_path) as client:
            assert client.ping()


class TestDrain:
    def test_draining_refuses_with_structured_envelope(self, daemon):
        daemon.draining.set()
        try:
            envelope = daemon.handle_request({"op": "ping"})
            assert envelope["ok"] is False
            assert envelope["draining"] is True
            assert envelope["request_id"]
            assert "draining" in envelope["error"]
            snapshot = daemon.recorder.snapshot()
            assert snapshot.counter("server.drain_refused") == 1
        finally:
            daemon.draining.clear()

    def test_clean_drain_stops_the_loop(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_mod, "DRAIN_DEADLINE", 2.0)
        server, stop = start_daemon(tmp_path)
        assert server.drain() is True
        deadline = time.monotonic() + 5.0
        while os.path.exists(server.socket_path):
            assert time.monotonic() < deadline, "drained daemon never stopped"
            time.sleep(0.01)
        snapshot = server.recorder.snapshot()
        assert snapshot.counter("server.drains") == 1
        assert snapshot.counter("server.drain_forced") == 0
        stop()

    def test_deadline_abandons_stragglers(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_mod, "DRAIN_DEADLINE", 0.2)
        server, stop = start_daemon(tmp_path)
        server.inflight += 1  # a request that will never finish
        try:
            started = time.monotonic()
            assert server.drain() is False
            assert time.monotonic() - started < 5.0
            assert (
                server.recorder.snapshot().counter("server.drain_forced") == 1
            )
        finally:
            server.inflight -= 1
            stop()


# ---------------------------------------------------------------------------
# Full kill -9 stories against daemon subprocesses
# ---------------------------------------------------------------------------


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


#: a daemon whose analyze requests stall for 30 s before they run
_SLOW_SERVED = """
import sys
from repro import cli
from repro.server import daemon
from tests.chaos.faults import slowed
daemon.run_source = slowed(daemon.run_source, 30.0)
sys.exit(cli.main(sys.argv[1:]))
"""


def _spawn_served(tmp_path, *extra_args, slow=False):
    socket_path = str(tmp_path / "served.sock")
    proc = subprocess.Popen(
        [
            sys.executable,
            *(["-c", _SLOW_SERVED] if slow else ["-m", "repro.cli"]),
            "served",
            "--socket",
            socket_path,
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            *extra_args,
        ],
        env=_cli_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO_ROOT),
    )
    deadline = time.monotonic() + 30.0
    while probe_socket(socket_path) != "alive":
        if proc.poll() is not None or time.monotonic() > deadline:
            out, err = proc.communicate(timeout=5)
            pytest.fail(f"daemon never came up: {err}")
        time.sleep(0.05)
    return proc, socket_path


def _reap(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate(timeout=10)


def _children(pid: int):
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ")"
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry))
    return children


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (an unreaped zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


#: make a pool under the start method in argv[1]; run a job, pause, run
#: another on the same workers, print the worker pids, then wait to be killed
_POOL_PROBE = """
import multiprocessing, os, sys, time
from repro.analysis.batch import _make_pool
multiprocessing.set_start_method(sys.argv[1])
pool = _make_pool(2)
first = pool.submit(pow, 2, 10).result(timeout=60)
time.sleep(1.0)
print(first, pool.submit(pow, 3, 3).result(timeout=60), flush=True)
print(*{pool.submit(os.getpid).result(timeout=60) for _ in range(4)}, flush=True)
time.sleep(600)
"""


@pytest.fixture()
def script(tmp_path):
    path = tmp_path / "job.sh"
    path.write_text('if [ "$#" -lt 1 ]; then exit 1; fi\necho "$1"\n')
    return str(path)


class TestKillNineRecovery:
    def test_restarted_daemon_answers_warm_from_cache(self, tmp_path, script):
        with open(script) as handle:
            source = handle.read()
        proc, socket_path = _spawn_served(tmp_path)
        try:
            with ServerClient(socket_path) as client:
                first = client.request({"op": "analyze", "source": source})
            assert first["cached"] is False
            os.kill(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=10)
            assert os.path.exists(socket_path)  # the kill -9 residue
        finally:
            _reap(proc)

        # crash-only restart: same socket, same cache dir
        proc, socket_path = _spawn_served(tmp_path)
        try:
            with ServerClient(socket_path) as client:
                second = client.request({"op": "analyze", "source": source})
                counters = client.last_metrics["counters"]
            assert second["cached"] is True
            assert counters.get("symex.runs", 0) == 0  # zero re-execution
            assert counters.get("batch.cache.hit") == 1
            assert second["report"] == first["report"]
        finally:
            _reap(proc)

    @needs_pool
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_pool_workers_do_not_keep_a_killed_daemons_socket(self, tmp_path):
        # forked pool workers outlive a kill -9 briefly; holding the
        # listener, they made the stale socket accept connections nobody
        # answered
        proc, socket_path = _spawn_served(tmp_path, "--jobs", "2")
        workers = []
        try:
            with ServerClient(socket_path) as client:
                client.batch([corpus(tmp_path, n=2)])
            workers = _children(proc.pid)
            assert workers, "the batch never started a pool"
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)  # the workers still hold its pipes
            started = time.monotonic()
            with pytest.raises(ServerUnavailable, match="no analysis server"):
                ServerClient(socket_path, breaker=CircuitBreaker()).ping()
            assert time.monotonic() - started < 1.0
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _reap(proc)

    @needs_pool
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    def test_pool_workers_exit_with_a_killed_daemon(self, tmp_path):
        # a worker blocks on the pool's queue forever; only its watch on
        # the pool's maker can end it once the daemon is gone
        proc, socket_path = _spawn_served(tmp_path, "--jobs", "2")
        workers = []
        try:
            with ServerClient(socket_path) as client:
                client.batch([corpus(tmp_path, n=2)])
            workers = _children(proc.pid)
            assert workers, "the batch never started a pool"
            os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"pool workers outlived the daemon: "
                    f"{[pid for pid in workers if _running(pid)]}"
                )
                time.sleep(0.1)
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _reap(proc)

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_pool_workers_serve_then_exit_with_their_maker(self, method):
        # under forkserver (the Linux default from Python 3.14) a worker's
        # OS parent is the fork server, not the pool's maker: a watch keyed
        # on the maker's pid kills every worker at once, and one keyed on
        # the OS parent never fires while the fork server waits on it
        proc = subprocess.Popen(
            [sys.executable, "-c", _POOL_PROBE, method],
            env=_cli_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        workers = []
        try:
            if proc.stdout.readline().split() != ["1024", "27"]:
                proc.kill()
                pytest.fail(f"{method} pool lost its jobs: {proc.communicate()[1]}")
            workers = [int(pid) for pid in proc.stdout.readline().split()]
            assert workers
            os.kill(proc.pid, signal.SIGKILL)
            deadline = time.monotonic() + 5.0
            while any(_running(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"{method} pool workers outlived their maker: "
                    f"{[pid for pid in workers if _running(pid)]}"
                )
                time.sleep(0.1)
        finally:
            for pid in workers:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            _reap(proc)

    def test_kill_nine_mid_request_falls_back_byte_identical(
        self, tmp_path, script
    ):
        inline = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", script],
            capture_output=True,
            text=True,
            env=_cli_env(),
            cwd=str(REPO_ROOT),
        )

        # the daemon stalls analyze requests for 30s, so the request
        # is reliably in flight when the SIGKILL lands
        proc, socket_path = _spawn_served(tmp_path, slow=True)
        try:
            cli = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.cli",
                    "analyze",
                    "--server",
                    "--socket",
                    socket_path,
                    script,
                ],
                env=_cli_env(),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                cwd=str(REPO_ROOT),
            )
            # wait until the analyze request is in flight (the stats
            # request itself counts as one in-flight request, so >= 2)
            with ServerClient(socket_path) as probe:
                deadline = time.monotonic() + 30.0
                while True:
                    if probe.stats()["inflight"] >= 2:
                        break
                    assert time.monotonic() < deadline, "request never arrived"
                    time.sleep(0.05)
            os.kill(proc.pid, signal.SIGKILL)
            out, err = cli.communicate(timeout=120)
            assert cli.returncode == inline.returncode
            assert out == inline.stdout  # byte-identical final report
            assert "analyzing inline" in err
        finally:
            _reap(proc)


class TestSigtermDrain:
    def test_sigterm_drains_and_exits_cleanly(self, tmp_path, script):
        log_path = str(tmp_path / "ops.jsonl")
        proc, socket_path = _spawn_served(tmp_path, "--log-file", log_path)
        try:
            with ServerClient(socket_path) as client:
                client.request({"op": "ping"})
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0, err
            assert not os.path.exists(socket_path)
            with open(log_path) as handle:
                events = [json.loads(line) for line in handle if line.strip()]
            names = [event.get("event") for event in events]
            assert "server.drain.start" in names
            assert "server.drain.done" in names
            assert "server.stop" in names
        finally:
            _reap(proc)
