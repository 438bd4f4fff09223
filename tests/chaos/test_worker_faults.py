"""Worker-death fault class: a pool worker killed mid-batch (OOM-kill,
segfault) must cost a retry, never a lost file — and the daemon must
rebuild its pool inside the failing request so the next one runs warm.

The kill is injected by monkeypatching ``batch._pool_worker`` with
:func:`.faults.kill_marked_worker`.  The pool pickles the function by
its qualified name, so the patch made in this process reaches the
workers under every start method: the worker that draws the marked
file dies, deterministically.
"""

import concurrent.futures as futures
import multiprocessing

import pytest

from repro.analysis import batch, run_batch
from repro.analysis.cache import ResultCache
from repro.obs import TraceRecorder, use_recorder
from repro.server import ServerClient

from .conftest import corpus, needs_pool, start_daemon
from .faults import MARKER, kill_marked_worker


@needs_pool
class TestDaemonPoolDeath:
    def test_worker_kill_mid_batch_recovers_in_request(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(batch, "_pool_worker", kill_marked_worker)
        scripts = corpus(tmp_path, n=4, marker=MARKER)
        cache = ResultCache(str(tmp_path / "cache"))
        server, stop = start_daemon(tmp_path, jobs=2, cache=cache)
        try:
            with ServerClient(server.socket_path) as client:
                batch_result = client.batch([scripts])
            # the envelope is well-formed and no file is missing: the
            # marked file was retried inline after its worker died
            assert len(batch_result.results) == 4
            assert not any(r.quarantined for r in batch_result.results)
            snapshot = server.recorder.snapshot()
            assert snapshot.counter("batch.worker_failures") >= 1
            assert snapshot.counter("batch.retries") >= 1
            assert snapshot.counter("server.pool_rebuilds") >= 1
            # the rebuild happened inside the failing request
            assert server.pool_alive()

            # follow-up request: fully warm, straight from the cache,
            # without tripping the (still armed) kill switch
            with ServerClient(server.socket_path) as client:
                again = client.batch([scripts])
            assert len(again.results) == 4
            assert all(r.cached for r in again.results)
            assert again.hits == 4
        finally:
            stop()

    def test_batch_output_matches_fault_free_run(self, tmp_path, monkeypatch):
        scripts = corpus(tmp_path, n=4, marker=MARKER)

        server, stop = start_daemon(
            tmp_path, jobs=2, cache=ResultCache(str(tmp_path / "healthy"))
        )
        try:
            with ServerClient(server.socket_path) as client:
                healthy = client.batch([scripts]).render()
        finally:
            stop()

        monkeypatch.setattr(batch, "_pool_worker", kill_marked_worker)
        faulty_dir = tmp_path / "faulty-home"
        faulty_dir.mkdir()
        server, stop = start_daemon(
            faulty_dir, jobs=2, cache=ResultCache(str(tmp_path / "faulty"))
        )
        try:
            with ServerClient(server.socket_path) as client:
                faulty = client.batch([scripts]).render()
        finally:
            stop()
        assert faulty == healthy


@needs_pool
@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_worker_kill_under_every_start_method(tmp_path, monkeypatch, method):
    context = multiprocessing.get_context(method)

    def make_pool(jobs):
        return futures.ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=context,
            initializer=batch._exit_with_parent,
        )

    monkeypatch.setattr(batch, "_make_pool", make_pool)
    monkeypatch.setattr(batch, "_pool_worker", kill_marked_worker)
    scripts = corpus(tmp_path, n=4, marker=MARKER)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        faulty = run_batch([scripts], jobs=2)
    failures = recorder.counter("batch.worker_failures")
    assert failures >= 1
    assert recorder.counter("batch.retries") == failures
    assert not any(r.quarantined for r in faulty.results)
    assert faulty.render() == run_batch([scripts], jobs=1).render()
