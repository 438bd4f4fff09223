"""End-to-end daemon/client tests over a real Unix socket.

Each test spins the daemon up on a socket in tmp_path with ``jobs=1``
(no multiprocessing: sandbox-safe and fast) and talks to it through
:class:`~repro.server.ServerClient`.
"""

import os
import threading
import time

import pytest

from repro.analysis.batch import BatchConfig, run_batch
from repro.analysis.cache import ResultCache
from repro.obs import OpsLogger, TraceRecorder, use_recorder
from repro.server import (
    AnalysisServer,
    ServerClient,
    ServerError,
    ServerUnavailable,
    Watcher,
    server_available,
)
from repro.server import daemon as daemon_mod


@pytest.fixture()
def daemon(tmp_path):
    """A running daemon (warm cache dir, jobs=1) plus its socket path."""
    socket_path = str(tmp_path / "served.sock")
    server = AnalysisServer(
        socket_path=socket_path,
        jobs=1,
        cache=ResultCache(str(tmp_path / "cache")),
        recorder=TraceRecorder(),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not os.path.exists(socket_path):
        if time.monotonic() > deadline:
            pytest.fail("daemon socket never appeared")
        time.sleep(0.01)
    yield server
    if thread.is_alive():
        try:
            ServerClient(socket_path).shutdown()
        except (ServerUnavailable, ServerError):
            pass
        thread.join(timeout=5.0)


def _corpus(tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir(exist_ok=True)
    (scripts / "guard.sh").write_text(
        'if [ "$#" -lt 1 ]; then exit 1; fi\necho "$1"\n'
    )
    (scripts / "danger.sh").write_text('rm -rf "$STEAMROOT/"*\n')
    return str(scripts)


class TestOps:
    def test_ping(self, daemon):
        result = ServerClient(daemon.socket_path).ping()
        assert result["protocol"] == 2
        assert result["pid"] == os.getpid() or result["pid"] > 0

    def test_analyze_source(self, daemon):
        report = ServerClient(daemon.socket_path).analyze_source(
            'case "$1" in foo) echo hi;; esac\n'
        )
        assert not report.diagnostics

    def test_analyze_source_cached_second_time(self, daemon):
        client = ServerClient(daemon.socket_path)
        source = "echo one\n"
        client.analyze_source(source)
        result = client.request({"op": "analyze", "source": source, "config": {}})
        assert result["cached"] is True

    def test_analyze_path(self, daemon, tmp_path):
        script = tmp_path / "one.sh"
        script.write_text("rm -rf /\n")
        result = ServerClient(daemon.socket_path).request(
            {"op": "analyze", "path": str(script)}
        )
        codes = [d["code"] for d in result["report"]["diagnostics"]]
        assert "dangerous-deletion" in codes

    def test_batch_matches_inline_run(self, daemon, tmp_path):
        corpus = _corpus(tmp_path)
        client_batch = ServerClient(daemon.socket_path).batch([corpus])
        inline = run_batch([corpus], config=BatchConfig(), jobs=1, cache=None)
        assert client_batch.render() == inline.render()

    def test_batch_warm_is_all_hits_and_byte_identical(self, daemon, tmp_path):
        corpus = _corpus(tmp_path)
        client = ServerClient(daemon.socket_path)
        cold = client.batch([corpus])
        warm = client.batch([corpus])
        assert cold.misses == 2 and cold.hits == 0
        assert warm.hits == 2 and warm.misses == 0
        assert warm.render() == cold.render()

    def test_warm_batch_does_zero_symbolic_execution(self, daemon, tmp_path):
        corpus = _corpus(tmp_path)
        client = ServerClient(daemon.socket_path)
        client.batch([corpus])
        before = daemon.recorder.counter("batch.cache.miss")
        client.batch([corpus])
        assert daemon.recorder.counter("batch.cache.miss") == before

    def test_stats_op(self, daemon, tmp_path):
        client = ServerClient(daemon.socket_path)
        client.batch([_corpus(tmp_path)])
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["uptime_s"] >= 0
        counters = stats["metrics"]["counters"]
        assert counters.get("server.requests", 0) >= 1
        assert counters.get("batch.files", 0) == 2

    def test_unknown_op_is_an_error_response(self, daemon):
        client = ServerClient(daemon.socket_path)
        with pytest.raises(ServerError):
            client.request({"op": "frobnicate"})
        # the connection survives the error
        assert client.ping()["protocol"] == 2

    def test_unknown_op_names_do_not_grow_the_metrics(self, daemon):
        for index in range(50):
            envelope = daemon.handle_request({"op": f"junk{index}"})
            assert envelope["error"] == f"unknown op: 'junk{index}'"
        envelope = daemon.handle_request({"op": ["a"]})
        assert envelope["error"] == "unknown op: ['a']"
        snapshot = daemon.recorder.snapshot()
        assert snapshot.counter("server.op.unknown") == 51
        names = [*snapshot.counters, *snapshot.histograms]
        assert not [name for name in names if "junk" in name]
        assert set(daemon.handle_request({"op": "stats"})["result"]["latency_ms"]) == {
            "unknown"
        }

    def test_malformed_request_payload(self, daemon):
        client = ServerClient(daemon.socket_path)
        with pytest.raises(ServerError):
            client.request({"op": "analyze"})  # neither source nor path

    def test_budget_clamped_to_server_cap(self, daemon):
        # a client asking for an hour gets the server's ceiling instead
        config = daemon._clamped(BatchConfig(timeout=3600.0))
        assert config.timeout == daemon_mod.CAP_DEADLINE
        assert config.max_states == daemon_mod.CAP_STATES

    def test_budget_smaller_request_respected(self, daemon):
        config = daemon._clamped(BatchConfig(timeout=1.0, max_states=10))
        assert config.timeout == 1.0
        assert config.max_states == 10

    def test_concurrent_requests(self, daemon, tmp_path):
        corpus = _corpus(tmp_path)
        errors = []

        def hit():
            try:
                ServerClient(daemon.socket_path).batch([corpus])
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors

    def test_server_available_and_shutdown(self, daemon):
        assert server_available(daemon.socket_path)
        ServerClient(daemon.socket_path).shutdown()
        deadline = time.monotonic() + 5.0
        while server_available(daemon.socket_path):
            if time.monotonic() > deadline:
                pytest.fail("daemon did not stop")
            time.sleep(0.02)


class TestClientFallback:
    def test_no_daemon_raises_server_unavailable(self, tmp_path):
        with pytest.raises(ServerUnavailable):
            ServerClient(str(tmp_path / "nothing.sock")).ping()

    def test_server_available_false_without_daemon(self, tmp_path):
        assert not server_available(str(tmp_path / "nothing.sock"))


class TestWatcher:
    def test_first_scan_reports_everything(self, tmp_path):
        corpus = _corpus(tmp_path)
        watcher = Watcher([corpus])
        assert len(watcher.scan().changed) == 2

    def test_unchanged_scan_reports_nothing(self, tmp_path):
        watcher = Watcher([_corpus(tmp_path)])
        watcher.scan()
        assert watcher.scan() == ([], [])

    def test_modification_detected(self, tmp_path):
        corpus = _corpus(tmp_path)
        watcher = Watcher([corpus])
        watcher.scan()
        target = os.path.join(corpus, "guard.sh")
        with open(target, "a", encoding="utf-8") as handle:
            handle.write("echo more\n")
        changed, deleted = watcher.scan()
        assert changed == [target]
        assert deleted == []

    def test_new_file_detected(self, tmp_path):
        corpus = _corpus(tmp_path)
        watcher = Watcher([corpus])
        watcher.scan()
        new_path = os.path.join(corpus, "zz.sh")
        with open(new_path, "w", encoding="utf-8") as handle:
            handle.write("echo new\n")
        assert watcher.scan() == ([new_path], [])

    def test_deleted_file_reported_and_evicted(self, tmp_path):
        corpus = _corpus(tmp_path)
        watcher = Watcher([corpus])
        watcher.scan()
        gone = os.path.join(corpus, "danger.sh")
        os.unlink(gone)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            changed, deleted = watcher.scan()
        assert changed == []
        assert deleted == [gone]
        assert recorder.counter("watch.deleted") == 1
        # reported exactly once: the next scan is quiet again
        assert watcher.scan() == ([], [])

    def test_rename_is_deletion_plus_new_path(self, tmp_path):
        corpus = _corpus(tmp_path)
        watcher = Watcher([corpus])
        watcher.scan()
        old = os.path.join(corpus, "danger.sh")
        new = os.path.join(corpus, "renamed.sh")
        os.rename(old, new)
        changed, deleted = watcher.scan()
        assert changed == [new]
        assert deleted == [old]

    def test_deletion_logged(self, tmp_path):
        import json

        corpus = _corpus(tmp_path)
        log_path = str(tmp_path / "watch.log")
        watcher = Watcher([corpus], log=OpsLogger(log_path))
        watcher.scan()
        gone = os.path.join(corpus, "danger.sh")
        os.unlink(gone)
        watcher.scan()
        with open(log_path, "r", encoding="utf-8") as handle:
            events = [json.loads(line) for line in handle]
        [event] = [e for e in events if e["event"] == "watch.deleted"]
        assert event["path"] == gone

    def test_watch_mode_warms_the_cache(self, daemon, tmp_path):
        corpus = _corpus(tmp_path)
        daemon.start_watcher([corpus], interval=0.05)
        client = ServerClient(daemon.socket_path)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            batch = client.batch([corpus])
            if batch.hits == 2 and batch.misses == 0:
                break
            time.sleep(0.05)
        else:
            pytest.fail("watcher never warmed the cache")
        # an edit is re-analyzed by the watcher, not by the next request
        rounds = client.stats()["watch_rounds"]
        with open(os.path.join(corpus, "danger.sh"), "a", encoding="utf-8") as handle:
            handle.write('echo "edited"\n')
        deadline = time.monotonic() + 10.0
        while client.stats()["watch_rounds"] == rounds:
            if time.monotonic() > deadline:
                pytest.fail("watcher never re-analyzed the edit")
            time.sleep(0.05)
        batch = client.batch([corpus])
        assert (batch.hits, batch.misses) == (2, 0)
        assert batch.render() == run_batch([corpus], jobs=1, cache=None).render()


class TestRequestTelemetry:
    """Request-scoped tracing: ids, envelope metrics, and the invariant
    that per-request snapshots sum into the server totals."""

    def test_every_response_carries_a_unique_request_id(self, daemon):
        client = ServerClient(daemon.socket_path)
        ids = []
        for _ in range(3):
            client.ping()
            ids.append(client.last_request_id)
        assert all(ids)
        assert len(set(ids)) == 3

    def test_error_responses_carry_request_ids_too(self, daemon):
        client = ServerClient(daemon.socket_path)
        with pytest.raises(ServerError):
            client.request({"op": "frobnicate"})
        assert client.last_request_id

    def test_envelope_metrics_show_where_the_request_spent_time(self, daemon):
        client = ServerClient(daemon.socket_path)
        client.analyze_source("grep pattern /etc/hosts > /tmp/out\n")
        metrics = client.last_metrics
        assert metrics is not None
        assert metrics["counters"]["server.requests"] == 1
        assert metrics["counters"]["server.op.analyze"] == 1
        assert "server.request_ms.analyze" in metrics["histograms"]
        assert client.last_elapsed_ms > 0

    def test_telemetry_false_suppresses_envelope_metrics(self, daemon):
        client = ServerClient(daemon.socket_path)
        client.request({"op": "ping", "telemetry": False})
        assert client.last_metrics is None
        assert client.last_request_id  # the id survives opting out

    def test_per_request_metrics_sum_into_stats_totals(self, daemon, tmp_path):
        """The consistency invariant: summing the envelope snapshots of
        every request must reproduce the stats-op counters exactly."""
        from repro.obs import MetricsSnapshot

        client = ServerClient(daemon.socket_path)
        summed = MetricsSnapshot()
        client.analyze_source("echo request-sum-one\n")
        summed.merge(MetricsSnapshot.from_dict(client.last_metrics))
        client.analyze_source("echo request-sum-one\n")  # cache hit
        summed.merge(MetricsSnapshot.from_dict(client.last_metrics))
        client.batch([_corpus(tmp_path)])
        summed.merge(MetricsSnapshot.from_dict(client.last_metrics))

        totals = MetricsSnapshot.from_dict(client.stats()["metrics"])
        for name, value in summed.counters.items():
            assert totals.counter(name) >= value, name
        # this client was the only traffic source for these counters
        assert totals.counter("server.op.analyze") == 2
        assert totals.counter("batch.cache.hit") == summed.counter(
            "batch.cache.hit"
        )
        assert (
            totals.histogram("server.request_ms.analyze").count
            == summed.histogram("server.request_ms.analyze").count
            == 2
        )

    def test_concurrent_requests_do_not_cross_contaminate(self, daemon, tmp_path):
        corpus = _corpus(tmp_path)
        results = []

        def hit():
            client = ServerClient(daemon.socket_path)
            client.batch([corpus])
            results.append(client.last_metrics)

        threads = [threading.Thread(target=hit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert len(results) == 4
        for metrics in results:
            # each request sees exactly its own accounting
            assert metrics["counters"]["server.requests"] == 1
            assert metrics["counters"]["server.op.batch"] == 1


class TestExtendedStats:
    def test_stats_operational_fields(self, daemon, tmp_path):
        client = ServerClient(daemon.socket_path)
        client.batch([_corpus(tmp_path)])
        client.batch([_corpus(tmp_path)])  # warm: all hits
        stats = client.stats()
        assert stats["uptime_s"] >= 0
        assert stats["request_rate_rps"] > 0
        assert stats["inflight"] == 1  # the stats request itself
        assert stats["max_inflight"] >= 1
        assert stats["errors"] == 0
        assert stats["shed"] == 0
        assert stats["pool_alive"] is False  # jobs=1: no pool
        assert stats["cache_hits"] == 2 and stats["cache_misses"] == 2
        assert stats["cache_hit_rate"] == 0.5

    def test_stats_latency_quantiles_per_op(self, daemon):
        client = ServerClient(daemon.socket_path)
        for index in range(3):
            client.analyze_source(f"echo latency-{index}\n")
        stats = client.stats()
        latency = stats["latency_ms"]["analyze"]
        assert latency["count"] == 3
        assert latency["p50_ms"] is not None
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
        assert latency["max_ms"] >= latency["p99_ms"]

    def test_budget_clamp_is_counted(self, daemon):
        client = ServerClient(daemon.socket_path)
        client.request(
            {
                "op": "analyze",
                "source": "echo clamp\n",
                "config": {"timeout": 999999.0},
            }
        )
        assert client.last_metrics["counters"]["server.budget_clamped"] == 1
        assert client.stats()["budget_clamps"] >= 1

    def test_in_cap_budget_not_counted_as_clamp(self, daemon):
        client = ServerClient(daemon.socket_path)
        client.request(
            {"op": "analyze", "source": "echo ok\n", "config": {"timeout": 1.0}}
        )
        assert "server.budget_clamped" not in client.last_metrics["counters"]


class TestMetricsOp:
    def test_prometheus_text_scrapes(self, daemon, tmp_path):
        client = ServerClient(daemon.socket_path)
        client.batch([_corpus(tmp_path)])
        text = client.metrics_text()
        assert "repro_server_requests_total" in text
        assert "repro_batch_files_total" in text
        assert "repro_server_request_ms summary" in text
        assert "repro_server_uptime_seconds" in text
        # exposition contract: every line is a comment or name+value
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)


class TestLoadShedding:
    def test_requests_beyond_max_inflight_are_shed(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon_mod, "MAX_INFLIGHT", 0)  # everything sheds
        socket_path = str(tmp_path / "shed.sock")
        server = AnalysisServer(
            socket_path=socket_path,
            jobs=1,
            cache=None,
            recorder=TraceRecorder(),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not os.path.exists(socket_path):
            if time.monotonic() > deadline:
                pytest.fail("daemon socket never appeared")
            time.sleep(0.01)
        try:
            client = ServerClient(socket_path)
            with pytest.raises(ServerError, match="overloaded"):
                client.ping()
            assert client.last_request_id
            assert server.recorder.counter("server.shed") == 1
        finally:
            server._initiate_shutdown()
            thread.join(timeout=5.0)


class TestOpsLog:
    @pytest.fixture()
    def logged_daemon(self, tmp_path):
        from repro.obs import OpsLogger

        socket_path = str(tmp_path / "logged.sock")
        log_path = str(tmp_path / "ops.jsonl")
        server = AnalysisServer(
            socket_path=socket_path,
            jobs=1,
            cache=ResultCache(str(tmp_path / "cache")),
            recorder=TraceRecorder(),
            log=OpsLogger(log_path, level="debug"),
            slow_ms=0.0,  # every request is "slow": exercises the path
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while not os.path.exists(socket_path):
            if time.monotonic() > deadline:
                pytest.fail("daemon socket never appeared")
            time.sleep(0.01)
        yield server, log_path
        if thread.is_alive():
            try:
                ServerClient(socket_path).shutdown()
            except (ServerUnavailable, ServerError):
                pass
            thread.join(timeout=5.0)

    def _events(self, log_path):
        import json

        with open(log_path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle]

    def test_request_lifecycle_events(self, logged_daemon):
        server, log_path = logged_daemon
        client = ServerClient(server.socket_path)
        client.analyze_source("echo logged\n")
        events = self._events(log_path)
        kinds = [e["event"] for e in events]
        assert "server.start" in kinds
        assert "request.accept" in kinds
        assert "request.done" in kinds
        assert "request.slow" in kinds  # slow_ms=0 makes everything slow
        done = next(e for e in events if e["event"] == "request.done")
        assert done["op"] == "analyze"
        assert done["request_id"] == client.last_request_id
        assert done["elapsed_ms"] > 0

    def test_failed_request_logs_structured_error(self, logged_daemon):
        server, log_path = logged_daemon
        client = ServerClient(server.socket_path)
        with pytest.raises(ServerError):
            client.request({"op": "analyze"})  # neither source nor path
        errors = [
            e for e in self._events(log_path) if e["event"] == "request.error"
        ]
        assert errors and errors[0]["error_type"] == "ValueError"
        assert errors[0]["request_id"] == client.last_request_id
        assert server.recorder.counter("server.errors") == 1


class TestWatcherStatErrors:
    def test_unreadable_path_bumps_counter_and_logs(self, tmp_path):
        from repro.obs import OpsLogger, TraceRecorder, use_recorder
        from repro.server import watch as watch_mod

        log_path = str(tmp_path / "watch.jsonl")
        corpus = _corpus(tmp_path)
        watcher = Watcher([corpus], log=OpsLogger(log_path))
        original_stat = os.stat

        def failing_stat(path, *args, **kwargs):
            if str(path).endswith("guard.sh"):
                raise PermissionError(13, "Permission denied", str(path))
            return original_stat(path, *args, **kwargs)

        recorder = TraceRecorder()
        watch_mod.os.stat = failing_stat
        try:
            with use_recorder(recorder):
                changed, _deleted = watcher.scan()
        finally:
            watch_mod.os.stat = original_stat
        assert len(changed) == 1  # danger.sh still reported
        assert recorder.counter("watch.stat_errors") == 1
        import json

        with open(log_path, "r", encoding="utf-8") as handle:
            [event] = [json.loads(line) for line in handle]
        assert event["event"] == "watch.stat_error"
        assert event["path"].endswith("guard.sh")
        assert event["level"] == "warning"
