"""E-server: resident analysis server guards.

The just-in-time use case (shell startup hooks, editor integration)
cannot afford a cold CLI run per invocation: interpreter start-up,
spec-registry construction, and a full symbolic execution of every
file.  The resident server amortises all three.  Two properties anchor
it:

1. **Warm server beats cold CLI** — a batch request against a daemon
   whose result cache is already warm must cost less wall-clock than a
   fresh ``repro-analyze`` process analysing the same unchanged corpus
   from scratch.
2. **Zero symbolic execution warm** — the warm request is pure cache
   reads: the daemon's ``batch.cache.miss`` counter must not grow.
3. **No automaton rebuilt on a repeated miss** — the daemon keeps one
   language table across requests, so a script it analysed before
   costs symbolic execution but no determinisation and no product.
"""

import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from conftest import emit, emit_json

from repro.analysis import ResultCache
from repro.obs import TraceRecorder
from repro.server import AnalysisServer, ServerClient
from tests.serving import wait_until_serving

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = REPO_ROOT / "examples" / "scripts"
CORPUS_SIZE = 24


def _script(index):
    # per-index paths defeat content dedup; loops + conditionals give
    # every file a non-trivial symbolic execution
    return (
        f'if [ "$#" -lt 1 ]; then echo "usage: $0 target" >&2; exit 1; fi\n'
        f"base=/srv/app{index}\n"
        f'for part in a b c "$@"; do\n'
        f'  if [ -f "$base/$part" ]; then\n'
        f'    rm "$base/$part"\n'
        f"  else\n"
        f'    mkdir -p "$base"\n'
        f"  fi\n"
        f"done\n"
        f"grep pattern{index} /etc/config{index} > /tmp/out{index}\n"
    )


@pytest.fixture
def corpus(tmp_path):
    scripts = tmp_path / "corpus"
    scripts.mkdir()
    for index in range(CORPUS_SIZE):
        (scripts / f"s{index:02d}.sh").write_text(_script(index))
    return scripts


@pytest.fixture
def daemon(tmp_path):
    server = AnalysisServer(
        socket_path=str(tmp_path / "served.sock"),
        jobs=1,
        cache=ResultCache(str(tmp_path / "server-cache")),
        recorder=TraceRecorder(),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    wait_until_serving(server.socket_path)
    yield server
    server._initiate_shutdown()
    thread.join(timeout=5.0)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _cold_cli(corpus):
    """One full ``repro-analyze`` process: start-up + analysis, no cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(corpus), "--no-cache"],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


def test_warm_server_beats_cold_cli(corpus, daemon):
    client = ServerClient(daemon.socket_path)
    cold_batch = client.batch([str(corpus)])  # warm the daemon's cache
    assert cold_batch.misses == CORPUS_SIZE

    completed, cli_seconds = _timed(lambda: _cold_cli(corpus))
    assert completed.returncode in (0, 1), completed.stderr

    misses_before = daemon.recorder.counter("batch.cache.miss")
    warm_batch, server_seconds = _timed(lambda: client.batch([str(corpus)]))

    emit(
        "E-server (cold CLI vs warm server)",
        [
            f"corpus: {CORPUS_SIZE} scripts",
            f"cold CLI:    {cli_seconds * 1e3:.1f}ms (process + analysis)",
            f"warm server: {server_seconds * 1e3:.1f}ms "
            f"({cli_seconds / max(server_seconds, 1e-9):.1f}x faster)",
            f"warm hits: {warm_batch.hits}/{CORPUS_SIZE}",
        ],
    )
    emit_json(
        "server",
        {
            "corpus_files": CORPUS_SIZE,
            "cold_cli_ms": round(cli_seconds * 1e3, 3),
            "warm_server_ms": round(server_seconds * 1e3, 3),
            "speedup_x": round(cli_seconds / max(server_seconds, 1e-9), 1),
            "warm_hits": warm_batch.hits,
            "warm_misses": warm_batch.misses,
        },
        section="warm_server_vs_cold_cli",
    )

    # the acceptance bar: zero symbolic execution on the warm request
    assert warm_batch.hits == CORPUS_SIZE and warm_batch.misses == 0
    assert daemon.recorder.counter("batch.cache.miss") == misses_before
    assert warm_batch.render() == cold_batch.render()
    assert server_seconds < cli_seconds, (
        f"warm server ({server_seconds * 1e3:.1f}ms) failed to beat "
        f"cold CLI ({cli_seconds * 1e3:.1f}ms)"
    )


def test_warm_server_latency_is_flat_in_corpus_cost(corpus, daemon):
    """A warm request is cache reads + one socket round-trip: its cost
    must stay far below the daemon's own cold analysis of the corpus."""
    client = ServerClient(daemon.socket_path)
    _, cold_seconds = _timed(lambda: client.batch([str(corpus)]))
    _, warm_seconds = _timed(lambda: client.batch([str(corpus)]))
    emit(
        "E-server (cold vs warm request, same daemon)",
        [
            f"cold request: {cold_seconds * 1e3:.1f}ms",
            f"warm request: {warm_seconds * 1e3:.1f}ms",
        ],
    )
    emit_json(
        "server",
        {
            "cold_request_ms": round(cold_seconds * 1e3, 3),
            "warm_request_ms": round(warm_seconds * 1e3, 3),
            "warm_vs_cold_ratio": round(warm_seconds / max(cold_seconds, 1e-9), 4),
        },
        section="warm_vs_cold_request_same_daemon",
    )
    assert warm_seconds < cold_seconds / 2


def test_request_telemetry_overhead(daemon):
    """The per-request envelope (request id + metrics snapshot) must not
    dominate a minimal round trip: pings with telemetry suppressed vs
    included bound the cost of request-scoped tracing itself."""
    client = ServerClient(daemon.socket_path)
    client.ping()  # connection + first-request warmup
    rounds = 50

    def ping_plain():
        for _ in range(rounds):
            client.request({"op": "ping", "telemetry": False})

    def ping_telemetry():
        for _ in range(rounds):
            client.request({"op": "ping"})

    _, plain = _timed(ping_plain)
    _, with_telemetry = _timed(ping_telemetry)
    per_request_us = (with_telemetry - plain) / rounds * 1e6
    emit(
        "E-ops (request-telemetry envelope overhead)",
        [
            f"{rounds} pings, telemetry off: {plain * 1e3:.1f}ms",
            f"{rounds} pings, telemetry on:  {with_telemetry * 1e3:.1f}ms",
            f"envelope cost: {per_request_us:.1f}us/request",
        ],
    )
    emit_json(
        "server",
        {
            "rounds": rounds,
            "ping_plain_ms": round(plain * 1e3, 3),
            "ping_telemetry_ms": round(with_telemetry * 1e3, 3),
            "envelope_us_per_request": round(per_request_us, 2),
        },
        section="request_telemetry_overhead",
    )
    # generous bound: the envelope must stay far below one analysis
    assert with_telemetry < plain * 10 + 0.5


def test_repeated_miss_builds_no_automaton(daemon):
    """The same example twice as a miss, its cache entry removed in
    between: the second request reuses every automaton the first built."""
    client = ServerClient(daemon.socket_path)
    source = (EXAMPLES / "steam_updater.sh").read_text(encoding="utf-8")
    counters = []
    for _ in range(2):
        shutil.rmtree(daemon.cache.root, ignore_errors=True)
        client.analyze_source(source)
        counters.append(client.last_metrics["counters"])
    first, second = counters
    emit(
        "E-served-languages (steam_updater.sh, the same miss twice)",
        [
            f"first:  {first.get('rlang.determinise_calls', 0)} determinise, "
            f"{first.get('rlang.product_calls', 0)} product",
            f"second: {second.get('rlang.determinise_calls', 0)} determinise, "
            f"{second.get('rlang.product_calls', 0)} product",
        ],
    )
    assert first["batch.cache.miss"] == second["batch.cache.miss"] == 1
    assert first["rlang.determinise_calls"] > 0 and first["rlang.product_calls"] > 0
    assert second.get("rlang.determinise_calls", 0) == 0
    assert "rlang.product_calls" not in second
