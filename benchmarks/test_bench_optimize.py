"""E-optimize: plan construction cost and amortisation guards.

Building an optimization plan is the most expensive query in the
repo: a dependence analysis (symbolic execution), a classification
pass, and one extra race-detector run per candidate rewrite.  Three
properties anchor the subsystem:

1. **Plans amortise** — a warm ``ResultCache`` retrieval of a plan must
   cost far less than building it cold.
2. **Zero symbolic execution warm** — warm retrieval is pure cache
   reads: the ``symex.runs`` counter must not grow at all.
3. **The daemon serves plans warm** — a resident server answering an
   ``optimize`` request from cache must beat the cold in-process build.
"""

import os
import threading
import time

import pytest
from conftest import emit, emit_json

from repro.analysis import ResultCache
from repro.analysis.batch import BatchConfig, run_batch
from repro.analysis.optimize import OptimizePlan, build_plan
from repro.analysis.pipeline import OPS
from repro.obs import TraceRecorder, use_recorder
from repro.server import AnalysisServer, ServerClient

CORPUS_SIZE = 6


def _script(index):
    # a fan-out the advisor must work for: three independent greps, an
    # aggregation pipeline, plus per-index paths to defeat dedup
    return (
        f"mkdir -p /srv/out{index}\n"
        f"grep ERR{index} /var/log/web{index}.log > /srv/out{index}/web.txt\n"
        f"grep ERR{index} /var/log/db{index}.log > /srv/out{index}/db.txt\n"
        f"grep ERR{index} /var/log/q{index}.log > /srv/out{index}/q.txt\n"
        f"cat /srv/out{index}/web.txt /srv/out{index}/db.txt /srv/out{index}/q.txt"
        f" | sort | uniq -c > /srv/out{index}/summary.txt\n"
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
        socket_path=str(tmp_path / "optimize.sock"),
        jobs=1,
        cache=ResultCache(str(tmp_path / "server-cache")),
        recorder=TraceRecorder(),
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 5.0
    while not os.path.exists(server.socket_path):
        if time.monotonic() > deadline:
            pytest.fail("daemon socket never appeared")
        time.sleep(0.01)
    yield server
    server._initiate_shutdown()
    thread.join(timeout=5.0)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_warm_plan_cache_runs_zero_symex(corpus, tmp_path):
    cache = ResultCache(str(tmp_path / "plan-cache"))

    cold_rec = TraceRecorder()
    with use_recorder(cold_rec):
        cold, cold_seconds = _timed(
            lambda: run_batch([str(corpus)], cache=cache, jobs=1, op="optimize")
        )
    assert cold.misses == CORPUS_SIZE and not cold.degraded

    warm_rec = TraceRecorder()
    with use_recorder(warm_rec):
        warm, warm_seconds = _timed(
            lambda: run_batch([str(corpus)], cache=cache, jobs=1, op="optimize")
        )

    emit(
        "E-optimize (cold build vs warm plan cache)",
        [
            f"corpus: {CORPUS_SIZE} scripts",
            f"cold build: {cold_seconds * 1e3:.1f}ms",
            f"warm cache: {warm_seconds * 1e3:.1f}ms "
            f"({cold_seconds / max(warm_seconds, 1e-9):.1f}x faster)",
            f"warm symex runs: {warm_rec.counter('symex.runs')}",
        ],
    )
    emit_json(
        "optimize",
        {
            "corpus_files": CORPUS_SIZE,
            "cold_build_ms": round(cold_seconds * 1e3, 3),
            "warm_cache_ms": round(warm_seconds * 1e3, 3),
            "speedup_x": round(cold_seconds / max(warm_seconds, 1e-9), 1),
            "cold_symex_runs": cold_rec.counter("symex.runs"),
            "warm_symex_runs": warm_rec.counter("symex.runs"),
        },
        section="cold_vs_warm_cache",
    )

    # the acceptance bar: warm plan retrieval does zero symbolic execution
    assert warm.hits == CORPUS_SIZE and warm.misses == 0
    assert warm_rec.counter("symex.runs") == 0
    assert cold_rec.counter("symex.runs") > 0
    assert warm.render() == cold.render()
    assert warm_seconds < cold_seconds


def test_warm_server_plan_beats_cold_inline(corpus, daemon):
    client = ServerClient(daemon.socket_path)
    source = (corpus / "s00.sh").read_text()

    served_cold = client.optimize_source(source)  # warms the daemon cache
    inline, inline_seconds = _timed(lambda: build_plan(source).to_dict())

    symex_before = daemon.recorder.counter("symex.runs")
    served_warm, server_seconds = _timed(lambda: client.optimize_source(source))

    emit(
        "E-optimize (cold inline vs warm server)",
        [
            f"cold inline build: {inline_seconds * 1e3:.1f}ms",
            f"warm server plan:  {server_seconds * 1e3:.1f}ms "
            f"({inline_seconds / max(server_seconds, 1e-9):.1f}x faster)",
            f"cache hits: {daemon.recorder.counter('optimize.cache.hit')}",
        ],
    )
    emit_json(
        "optimize",
        {
            "cold_inline_ms": round(inline_seconds * 1e3, 3),
            "warm_server_ms": round(server_seconds * 1e3, 3),
            "speedup_x": round(inline_seconds / max(server_seconds, 1e-9), 1),
            "server_cache_hits": daemon.recorder.counter("optimize.cache.hit"),
        },
        section="cold_inline_vs_warm_server",
    )

    # byte-identical plans across inline, cold-served, and warm-served
    assert served_cold == inline == served_warm
    # warm service did no symbolic execution and hit the plan cache
    assert daemon.recorder.counter("symex.runs") == symex_before
    assert daemon.recorder.counter("optimize.cache.hit") >= 1
    assert server_seconds < inline_seconds


def test_plan_cache_key_tracks_schema(tmp_path):
    """Plan cache entries are salted with the plan schema version: a
    version bump must invalidate every stored plan, never deserialize
    stale shapes."""
    cache = ResultCache(str(tmp_path / "plan-cache"))
    source = _script(0)
    config = BatchConfig()
    plan = build_plan(source)
    key = OPS["optimize"].cache_key(source, config)
    cache.put(key, plan.to_dict())

    hit = cache.get(key, schema=OptimizePlan.SCHEMA_VERSION)
    assert hit is not None
    assert OptimizePlan.from_dict(hit).to_dict() == plan.to_dict()
    assert cache.get(key, schema=OptimizePlan.SCHEMA_VERSION + 1) is None
