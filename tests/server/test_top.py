"""The live ops console (``repro-top``) against a real daemon."""

import threading

import pytest

from repro.analysis.cache import ResultCache
from repro.cli import main_top
from repro.obs import TraceRecorder
from repro.server import AnalysisServer, ServerClient, ServerError, ServerUnavailable
from tests.serving import wait_until_serving


@pytest.fixture()
def daemon(tmp_path):
    socket_path = str(tmp_path / "served.sock")
    server = AnalysisServer(
        socket_path=socket_path,
        jobs=1,
        cache=ResultCache(str(tmp_path / "cache")),
        recorder=TraceRecorder(),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wait_until_serving(socket_path)
    yield server
    if thread.is_alive():
        try:
            ServerClient(socket_path).shutdown()
        except (ServerUnavailable, ServerError):
            pass
        thread.join(timeout=5.0)


def test_once_renders_a_dashboard_frame(daemon, capsys):
    client = ServerClient(daemon.socket_path)
    client.analyze_source("echo top-frame\n")
    client.analyze_source("echo top-frame\n")  # warm: a cache hit
    code = main_top(["--socket", daemon.socket_path, "--once"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro-top" in out
    assert "requests" in out
    assert "cache" in out
    assert "analyze" in out  # per-op latency row
    assert "p95" in out
    assert "\x1b[2J" not in out  # --once never clears the screen


def test_metrics_flag_dumps_prometheus_text(daemon, capsys):
    ServerClient(daemon.socket_path).ping()
    code = main_top(["--socket", daemon.socket_path, "--metrics"])
    assert code == 0
    out = capsys.readouterr().out
    assert "repro_server_requests_total" in out
    assert "repro_server_uptime_seconds" in out


def test_once_fails_cleanly_without_a_daemon(tmp_path, capsys):
    code = main_top(["--socket", str(tmp_path / "nothing.sock"), "--once"])
    assert code == 1
    assert "repro-top" in capsys.readouterr().err


def test_frame_shows_instantaneous_rates():
    from repro.tools import _render_top_frame

    stats = {
        "pid": 42,
        "version": "0.1.0",
        "protocol": 1,
        "uptime_s": 10.0,
        "requests": 20,
        "request_rate_rps": 2.0,
        "inflight": 1,
        "max_inflight": 64,
        "errors": 0,
        "shed": 0,
        "slow_ms": 1000.0,
        "slow_requests": 0,
        "budget_clamps": 0,
        "cache_hit_rate": 0.75,
        "cache_hits": 3,
        "cache_misses": 1,
        "jobs": 4,
        "pool_alive": True,
        "watch_rounds": 0,
        "watch_stat_errors": 0,
        "latency_ms": {
            "analyze": {
                "count": 3,
                "mean_ms": 2.0,
                "p50_ms": 1.0,
                "p95_ms": 4.0,
                "p99_ms": 5.0,
                "max_ms": 6.0,
            }
        },
        "metrics": {"counters": {"server.requests": 20}, "histograms": {}},
    }
    previous = ({"server.requests": 10}, 0.0, 5.0)  # 10 requests in 5s
    frame = _render_top_frame(stats, previous)
    assert "20 (2.0/s)" in frame
    assert "75.0% hit" in frame
    assert "analyze" in frame and "4.0ms" in frame
