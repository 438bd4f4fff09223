"""Fault injection: every crash class from the acceptance criteria —
checker crash, worker kill, parser depth bomb, regex blowup, deadline
expiry, corrupt cache — must yield a renderable report with a
degraded/internal-error/quarantine entry, never an uncaught exception,
and degraded results must be provably absent from the cache."""

import os
from dataclasses import replace

import pytest

from repro import cli
from repro.analysis import (
    BatchConfig,
    ResultCache,
    analyze,
    batch as batch_mod,
    pipeline as pipeline_mod,
    run_batch,
)
from repro.analysis.resilience import (
    AnalysisBudgetExceeded,
    ResourceBudget,
    use_budget,
)
from repro.obs import TraceRecorder, use_recorder


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


def _kill_worker(item):
    """Stand-in pool worker simulating an OOM-kill/segfault: the process
    dies without unwinding, breaking the executor."""
    os._exit(137)


@pytest.fixture
def corpus(tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    for index in range(4):
        (scripts / f"s{index}.sh").write_text(f"echo {index}\n")
    return scripts


class TestCheckerCrash:
    def test_default_checkers_are_isolated(self):
        from repro.analysis.resilience import GuardedChecker
        from repro.checkers import default_checkers

        assert all(
            isinstance(checker, GuardedChecker) for checker in default_checkers()
        )

    def test_crash_in_finish_hook(self):
        class FinishBomb:
            name = "finish-bomb"

            def finish(self, states):
                raise ZeroDivisionError("finish bug")

        from repro.analysis.resilience import guard_checkers

        report = analyze("echo hi", checkers=guard_checkers([FinishBomb()]))
        assert report.has("internal-error")
        report.render()


class TestWorkerDeath:
    @needs_pool
    def test_killed_workers_are_retried_inline(self, corpus, monkeypatch):
        monkeypatch.setattr(batch_mod, "_pool_worker", _kill_worker)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=2)
        # every file still has a real (retried-inline) result
        assert len(batch.results) == 4
        assert not any(r.quarantined for r in batch.results)
        assert not batch.degraded
        assert recorder.counter("batch.worker_failures") == 4
        assert recorder.counter("batch.retries") == 4
        clean = run_batch([str(corpus)], jobs=1)
        assert batch.render() == clean.render()

    @needs_pool
    def test_retry_failure_quarantines(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(batch_mod, "_pool_worker", _kill_worker)

        def exploding_analyze(*args, **kwargs):
            raise RuntimeError("retry also dies")

        monkeypatch.setattr(pipeline_mod, "analyze", exploding_analyze)
        cache = ResultCache(str(tmp_path / "cache"))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=2, cache=cache)
        assert all(r.quarantined for r in batch.results)
        assert batch.degraded
        assert recorder.counter("batch.quarantined") == 4
        for result in batch.results:
            assert result.report.has("analysis-quarantined")
            result.report.render()
        assert "4 file(s) degraded" in batch.render()
        # quarantined results were never cached: a later run re-analyzes
        assert recorder.counter("batch.cache.store") == 0
        monkeypatch.undo()
        recorder2 = TraceRecorder()
        with use_recorder(recorder2):
            recovered = run_batch([str(corpus)], jobs=1, cache=cache)
        assert recorder2.counter("batch.cache.hit") == 0
        assert recorder2.counter("symex.runs") == 4
        assert not recovered.degraded

    @needs_pool
    def test_killed_workers_keep_optimize_batch_order(self, corpus, monkeypatch):
        clean = run_batch([str(corpus)], jobs=1, op="optimize")
        monkeypatch.setattr(batch_mod, "_pool_worker", _kill_worker)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=2, op="optimize")
        assert [r.path for r in batch.results] == [r.path for r in clean.results]
        assert not any(r.quarantined for r in batch.results)
        assert recorder.counter("optimize.retries") == 4
        assert batch.render() == clean.render()

    @needs_pool
    def test_killed_workers_keep_campaign_outcomes(self, monkeypatch):
        from repro.analysis.difftest import CampaignConfig, run_campaign

        config = CampaignConfig(seeds=(0, 1, 2, 3), exec_enabled=False, minimize=False)
        clean = run_campaign(config, jobs=1)
        monkeypatch.setattr(batch_mod, "_pool_worker", _kill_worker)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            campaign = run_campaign(config, jobs=2)
        labels = [outcome.label for outcome in campaign.outcomes]
        assert labels == [f"seed-{seed:05d}" for seed in config.seeds]
        assert recorder.counter("difftest.retries") == 4
        assert campaign.to_json() == clean.to_json()

    def test_inline_crash_does_not_abort_batch(self, corpus, monkeypatch):
        real_analyze_source = pipeline_mod.analyze_source

        crashed = []

        def selective_bomb(source, config, budget=None):
            if "echo 2" in source and not crashed:  # a transient crash
                crashed.append(source)
                raise MemoryError("inline crash")
            return real_analyze_source(source, config, budget)

        analyze_op = replace(pipeline_mod.OPS["analyze"], worker=selective_bomb)
        monkeypatch.setitem(pipeline_mod.OPS, "analyze", analyze_op)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1)
        # the crashed file was retried (successfully); the rest untouched
        assert len(batch.results) == 4
        assert recorder.counter("batch.worker_failures") == 1
        assert recorder.counter("batch.retries") == 1
        assert not batch.degraded


class TestDegradedNeverCached:
    BRANCHY = "\n".join(
        f"if test -f /srv/f{i}; then echo {i}; fi" for i in range(30)
    )

    def test_budget_degraded_report_not_stored(self, tmp_path):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "big.sh").write_text(self.BRANCHY)
        cache = ResultCache(str(tmp_path / "cache"))
        config = BatchConfig(max_states=5)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            first = run_batch([str(scripts)], config=config, jobs=1, cache=cache)
        assert first.degraded
        assert recorder.counter("batch.cache.store") == 0
        # cold rerun: still a miss, still re-analyzed
        recorder2 = TraceRecorder()
        with use_recorder(recorder2):
            run_batch([str(scripts)], config=config, jobs=1, cache=cache)
        assert recorder2.counter("batch.cache.miss") == 1
        assert recorder2.counter("batch.cache.hit") == 0
        # the file really was re-analyzed (and degraded again)
        assert recorder2.counter("analyze.degraded") == 1

    def test_completed_results_cached_across_budgets(self, tmp_path):
        # budget options are excluded from the fingerprint: a completed
        # report is budget-independent, so generous-budget runs can hit
        # entries stored by unbudgeted ones
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "ok.sh").write_text("echo hi\n")
        cache = ResultCache(str(tmp_path / "cache"))
        run_batch([str(scripts)], config=BatchConfig(), jobs=1, cache=cache)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            run_batch(
                [str(scripts)],
                config=BatchConfig(timeout=60.0),
                jobs=1,
                cache=cache,
            )
        assert recorder.counter("batch.cache.hit") == 1


class TestBudgetFaults:
    def test_parser_depth_bomb_in_batch(self, tmp_path):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "bomb.sh").write_text("(" * 500 + "echo hi" + ")" * 500)
        (scripts / "ok.sh").write_text("echo hi\n")
        batch = run_batch([str(scripts)], jobs=1)
        bomb = [r for r in batch.results if "bomb" in r.path][0]
        assert bomb.report.degraded
        ok = [r for r in batch.results if "ok" in r.path][0]
        assert not ok.report.degraded
        batch.render()

    def test_regex_blowup_trips_dfa_budget(self):
        from repro.rlang import build_nfa, determinise, parse
        from repro.rlang.ops import intersection

        def dfa(pattern):
            return determinise(build_nfa(parse(pattern)))

        # built unbudgeted, intersected under a tiny budget: the product
        # grows multiplicatively and must stop long before the hard cap
        left = dfa("(a|b)*a(a|b)(a|b)(a|b)")
        right = dfa("(b|a)*b(a|b)(a|b)(a|b)")
        with use_budget(ResourceBudget(max_dfa_states=4)):
            with pytest.raises(AnalysisBudgetExceeded) as exc:
                intersection(left, right)
        assert exc.value.budget == "dfa-states"

    def test_determinisation_blowup_trips_budget(self):
        from repro.rlang import build_nfa, parse, determinise

        nfa = build_nfa(parse("(a|b)*a(a|b)(a|b)(a|b)(a|b)(a|b)"))
        with use_budget(ResourceBudget(max_dfa_states=8)):
            with pytest.raises(AnalysisBudgetExceeded) as exc:
                determinise(nfa)
        assert exc.value.budget == "dfa-states"

    def test_deadline_expiry_mid_symex(self):
        report = analyze(
            TestDegradedNeverCached.BRANCHY,
            budget=ResourceBudget(deadline=0.0),
        )
        assert report.degraded
        assert "deadline" in report.by_code("analysis-degraded")[0].message
        report.render()


class TestCorruptCacheFaults:
    def test_unwritable_cache_root_degrades_to_passthrough(self, corpus, tmp_path):
        # a *file* where the cache root should be: every makedirs/open
        # fails with OSError, which must degrade to miss + no store
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(str(blocker))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1, cache=cache)
        assert len(batch.results) == 4
        assert recorder.counter("batch.cache.miss") == 4
        assert recorder.counter("batch.cache.store") == 0
        assert not batch.degraded

    def test_entries_corrupted_after_store_are_misses(self, corpus, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_batch([str(corpus)], jobs=1, cache=cache)
        for dirpath, _, filenames in os.walk(cache.root):
            for name in filenames:
                with open(os.path.join(dirpath, name), "w") as handle:
                    handle.write('{"schema": 1, "diag')  # truncated JSON
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1, cache=cache)
        assert recorder.counter("batch.cache.hit") == 0
        assert recorder.counter("batch.cache.miss") == 4
        assert len(batch.results) == 4


class TestCliExitCodes:
    def run_tool(self, argv, capsys):
        code = cli.main_analyze(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_degraded_single_file_exits_3(self, tmp_path, capsys):
        script = tmp_path / "big.sh"
        script.write_text(TestDegradedNeverCached.BRANCHY)
        code, out, _ = self.run_tool(
            [str(script), "--max-states", "5"], capsys
        )
        assert code == 3
        assert "[degraded]" in out

    def test_degraded_batch_exits_3(self, tmp_path, capsys):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "big.sh").write_text(TestDegradedNeverCached.BRANCHY)
        (scripts / "ok.sh").write_text("echo hi\n")
        code, out, _ = self.run_tool(
            [str(scripts), "--max-states", "5", "--no-cache", "--jobs", "1"],
            capsys,
        )
        assert code == 3
        assert "file(s) degraded" in out

    def test_unsafe_dominates_degraded(self, tmp_path, capsys):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "big.sh").write_text(TestDegradedNeverCached.BRANCHY)
        (scripts / "bad.sh").write_text("rm -rf /\n")
        code, _, _ = self.run_tool(
            [str(scripts), "--max-states", "5", "--no-cache", "--jobs", "1"],
            capsys,
        )
        assert code == 1

    def test_clean_run_still_exits_0(self, tmp_path, capsys):
        script = tmp_path / "ok.sh"
        script.write_text("echo hi\n")
        code, _, _ = self.run_tool([str(script), "--timeout", "60"], capsys)
        assert code == 0
