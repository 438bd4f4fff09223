"""Batch analysis driver and the persistent result cache."""

import json
import os

import pytest

from repro import cli
from repro.analysis import (
    BatchConfig,
    Report,
    ResultCache,
    analyze,
    cache_key,
    discover,
    run_batch,
)
from repro.diag import Severity
from repro.obs import TraceRecorder, use_recorder


@pytest.fixture
def corpus(tmp_path):
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "ok.sh").write_text("echo hello\n")
    (scripts / "warn.sh").write_text("mkdir /opt/x\n")
    (scripts / "bad.sh").write_text("rm -rf /\n")
    nested = scripts / "nested"
    nested.mkdir()
    (nested / "inner.sh").write_text("pwd\n")
    return scripts


class TestDiscover:
    def test_directory_walk_recursive_sorted(self, corpus):
        paths = discover([str(corpus)])
        names = [os.path.basename(p) for p in paths]
        # sorted by full path: nested/inner.sh lands between bad and ok
        assert names == ["bad.sh", "inner.sh", "ok.sh", "warn.sh"]

    def test_explicit_file_any_extension(self, tmp_path):
        script = tmp_path / "deploy"
        script.write_text("echo hi\n")
        assert discover([str(script)]) == [str(script)]

    def test_glob_pattern(self, corpus):
        paths = discover([str(corpus / "*.sh")])
        assert len(paths) == 3

    def test_deduplication(self, corpus):
        once = discover([str(corpus)])
        twice = discover([str(corpus), str(corpus / "ok.sh")])
        assert once == twice

    def test_missing_input_is_empty(self, tmp_path):
        assert discover([str(tmp_path / "nope")]) == []


class TestSerializationRoundTrip:
    CASES = [
        "echo hello",
        "rm -rf /",
        "mkdir /opt/x\nmkdir /opt/x\n",
        "grep foo file > file",
        "cmd > f &\ngrep x f\n",  # race hazards with related entries
        "if [ -f /etc/x ]; then rm /etc/x; fi",
        "tmp=$(mktemp); rm \"$tmp\"",
    ]

    @pytest.mark.parametrize("source", CASES)
    def test_render_byte_identical(self, source):
        report = analyze(source)
        restored = Report.from_dict(report.to_dict())
        assert restored.render() == report.render()
        assert restored.render(Severity.ERROR) == report.render(Severity.ERROR)

    def test_race_related_entries_survive(self):
        report = analyze("cmd > f &\ngrep x f\n")
        assert report.races(), "fixture should produce race hazards"
        restored = Report.from_dict(report.to_dict())
        [orig] = report.by_code("race-read-write")
        [back] = restored.by_code("race-read-write")
        assert back.related == orig.related
        assert back.pos.line == orig.pos.line and back.pos.col == orig.pos.col

    def test_dict_is_json_safe(self):
        report = analyze("rm -rf /")
        text = json.dumps(report.to_dict())
        assert Report.from_dict(json.loads(text)).render() == report.render()

    def test_counts_preserved(self):
        report = analyze("if [ -f /x ]; then echo a; else echo b; fi")
        restored = Report.from_dict(report.to_dict())
        assert restored.paths_explored == report.paths_explored
        assert restored.paths_merged == report.paths_merged
        assert restored.states == report.states
        assert restored.truncations == report.truncations


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key("echo hi", "cfg")
        assert cache.get(key) is None
        data = analyze("echo hi").to_dict()
        assert cache.put(key, data)
        assert cache.get(key) == data

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key("echo hi", "cfg")
        cache.put(key, analyze("echo hi").to_dict())
        path = cache.path_for(key)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get(key) is None

    def test_key_depends_on_source(self):
        assert cache_key("echo a", "cfg") != cache_key("echo b", "cfg")

    def test_key_depends_on_config(self):
        assert cache_key("echo a", "cfg1") != cache_key("echo a", "cfg2")

    def test_config_fingerprint_covers_options(self):
        base = BatchConfig()
        assert base.fingerprint() != BatchConfig(races=False).fingerprint()
        assert base.fingerprint() != BatchConfig(max_loop=3).fingerprint()
        assert base.fingerprint() != BatchConfig(include_lint=True).fingerprint()

    def test_fingerprint_excludes_budget_options(self):
        # completed reports are budget-independent, and degraded ones are
        # never cached — so budget options must NOT invalidate entries
        base = BatchConfig()
        assert base.fingerprint() == BatchConfig(timeout=5.0).fingerprint()
        assert base.fingerprint() == BatchConfig(max_states=100).fingerprint()


class TestCacheCorruption:
    """Every corruption class degrades to a miss — never an exception."""

    def _primed(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        key = cache_key("echo hi", "cfg")
        assert cache.put(key, analyze("echo hi").to_dict())
        return cache, key

    def test_truncated_json_is_a_miss(self, tmp_path):
        cache, key = self._primed(tmp_path)
        with open(cache.path_for(key), "r+") as handle:
            content = handle.read()
            handle.seek(0)
            handle.truncate()
            handle.write(content[: len(content) // 2])
        assert cache.get(key) is None

    def test_schema_version_mismatch_is_a_miss(self, tmp_path):
        cache, key = self._primed(tmp_path)
        data = cache.get(key)
        data["schema"] = Report.SCHEMA_VERSION + 1
        with open(cache.path_for(key), "w") as handle:
            json.dump(data, handle)
        assert cache.get(key) is None

    def test_schema_version_mismatch_is_counted(self, tmp_path):
        # a partial upgrade (old writer, new reader sharing a cache dir)
        # must read as a *visible* miss, not raise in from_dict
        from repro.obs import TraceRecorder, use_recorder

        cache, key = self._primed(tmp_path)
        data = cache.get(key)
        data["schema"] = Report.SCHEMA_VERSION - 1
        with open(cache.path_for(key), "w") as handle:
            json.dump(data, handle)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            assert cache.get(key) is None
        assert recorder.counter("batch.cache.schema_miss") == 1
        assert recorder.counter("batch.cache.corrupt") == 0

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache, key = self._primed(tmp_path)
        with open(cache.path_for(key), "w") as handle:
            json.dump(["not", "a", "report"], handle)
        assert cache.get(key) is None

    def test_unwritable_root_put_returns_false(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the cache dir should be")
        cache = ResultCache(str(blocker))
        key = cache_key("echo hi", "cfg")
        assert cache.put(key, analyze("echo hi").to_dict()) is False
        assert cache.get(key) is None

    def test_corruption_counts_as_misses_in_batch(self, corpus, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_batch([str(corpus)], jobs=1, cache=cache)
        for dirpath, _, filenames in os.walk(cache.root):
            for name in filenames:
                with open(os.path.join(dirpath, name), "w") as handle:
                    handle.write("{truncated")
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1, cache=cache)
        assert recorder.counter("batch.cache.miss") == 4
        assert recorder.counter("batch.cache.hit") == 0
        assert len(batch.results) == 4

    def test_unwritable_root_counts_misses_and_completes(self, corpus, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = ResultCache(str(blocker))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1, cache=cache)
        assert recorder.counter("batch.cache.miss") == 4
        assert recorder.counter("batch.cache.store") == 0
        assert len(batch.results) == 4


class TestRunBatch:
    def test_cold_run_analyzes_everything(self, corpus, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1, cache=cache)
        assert len(batch.results) == 4
        assert recorder.counter("batch.cache.miss") == 4
        assert recorder.counter("batch.cache.hit") == 0
        assert recorder.counter("batch.cache.store") == 4
        assert recorder.counter("symex.runs") == 4

    def test_warm_run_is_all_hits_and_no_symex(self, corpus, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_batch([str(corpus)], jobs=1, cache=cache)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            warm = run_batch([str(corpus)], jobs=1, cache=cache)
        assert recorder.counter("batch.cache.hit") == 4
        assert recorder.counter("batch.cache.miss") == 0
        # the acceptance bar: a warm rerun does ZERO symbolic execution
        assert recorder.counter("symex.runs") == 0
        assert warm.render() == cold.render()

    def test_editing_a_file_invalidates_only_it(self, corpus, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_batch([str(corpus)], jobs=1, cache=cache)
        (corpus / "ok.sh").write_text("echo changed\n")
        recorder = TraceRecorder()
        with use_recorder(recorder):
            run_batch([str(corpus)], jobs=1, cache=cache)
        assert recorder.counter("batch.cache.hit") == 3
        assert recorder.counter("batch.cache.miss") == 1

    def test_config_change_invalidates(self, corpus, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        run_batch([str(corpus)], config=BatchConfig(), jobs=1, cache=cache)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            run_batch(
                [str(corpus)],
                config=BatchConfig(max_loop=3),
                jobs=1,
                cache=cache,
            )
        assert recorder.counter("batch.cache.hit") == 0

    def test_no_cache_mode(self, corpus):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=1, cache=None)
        assert len(batch.results) == 4
        assert recorder.counter("batch.cache.hit") == 0
        assert recorder.counter("batch.cache.miss") == 0
        assert recorder.counter("symex.runs") == 4

    def test_unsafe_propagates(self, corpus, tmp_path):
        batch = run_batch([str(corpus)], jobs=1)
        assert batch.unsafe  # bad.sh has rm -rf /

    def test_render_has_headers_and_summary(self, corpus):
        batch = run_batch([str(corpus)], jobs=1)
        rendered = batch.render()
        assert "== " in rendered
        assert "4 file(s) analyzed:" in rendered
        assert "file(s) flagged" in rendered

    def test_unreadable_file_reported_not_fatal(self, corpus):
        # a broken symlink: discovered by the walk, unreadable on open
        os.symlink(str(corpus / "gone-target"), str(corpus / "dangling.sh"))
        batch = run_batch([str(corpus)], jobs=1)
        dangling = [r for r in batch.results if "dangling" in r.path]
        assert dangling and dangling[0].report.has("read-error")
        # the rest of the corpus is still analyzed
        assert len(batch.results) == 5

    @pytest.mark.parametrize("op", ["analyze", "optimize"])
    def test_non_utf8_file_reported_not_fatal(self, corpus, op):
        (corpus / "latin1.sh").write_bytes(b"\xff rm -rf /\n")
        batch = run_batch([str(corpus)], jobs=1, op=op)
        assert len(batch.results) == 5  # the rest of the corpus is still analyzed
        latin1 = [r for r in batch.results if r.path.endswith("latin1.sh")]
        assert latin1 and "can't decode byte 0xff" in batch.render()
        if op == "analyze":
            assert latin1[0].report.has("read-error")
        else:
            assert latin1[0].plan.degraded

    def test_parallel_matches_serial(self, corpus):
        serial = run_batch([str(corpus)], jobs=1)
        parallel = run_batch([str(corpus)], jobs=4)
        assert parallel.render() == serial.render()


class TestBatchCli:
    def run_tool(self, argv, capsys):
        code = cli.main_analyze(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_directory_triggers_batch_mode(self, corpus, capsys):
        code, out, _ = self.run_tool([str(corpus), "--no-cache"], capsys)
        assert code == 1  # bad.sh
        assert "== " in out
        assert "file(s) analyzed:" in out

    def test_multiple_files_trigger_batch_mode(self, corpus, capsys):
        code, out, _ = self.run_tool(
            [str(corpus / "ok.sh"), str(corpus / "warn.sh"), "--no-cache"],
            capsys,
        )
        assert code == 0
        assert out.count("== ") == 2

    def test_single_file_keeps_classic_output(self, corpus, capsys):
        code, out, _ = self.run_tool([str(corpus / "ok.sh")], capsys)
        assert code == 0
        assert "== " not in out

    def test_cache_flags_round_trip(self, corpus, tmp_path, capsys):
        cache_dir = str(tmp_path / "clicache")
        argv = [str(corpus), "--cache-dir", cache_dir, "--jobs", "1"]
        _, cold, _ = self.run_tool(argv, capsys)
        _, warm, _ = self.run_tool(argv, capsys)
        assert warm == cold  # byte-identical aggregated output
        assert os.path.isdir(cache_dir)

    def test_stats_shows_hit_rate_on_stderr(self, corpus, tmp_path, capsys):
        cache_dir = str(tmp_path / "clicache")
        argv = [str(corpus), "--cache-dir", cache_dir, "--jobs", "1", "--stats"]
        self.run_tool(argv, capsys)
        _, out, err = self.run_tool(argv, capsys)
        assert "batch.cache.hit" in err
        assert "batch.cache.miss" not in err  # 100% warm
        assert "batch.cache" not in out  # stdout stays byte-comparable

    def test_no_scripts_found(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code, _, err = self.run_tool([str(empty)], capsys)
        assert code == 2
        assert "no scripts" in err


class TestWorkerMetricsPropagation:
    """Worker-side MetricsSnapshots must cross the process-pool boundary
    and fold into the parent's recorder."""

    def _pool_available(self):
        import concurrent.futures as futures

        try:
            with futures.ProcessPoolExecutor(max_workers=1) as pool:
                return pool.submit(int, 1).result(timeout=60) == 1
        except Exception:
            return False

    def test_pool_worker_returns_a_snapshot_when_traced(self):
        from repro.analysis.batch import _pool_worker
        from repro.analysis.pipeline import analyze_source

        data, seconds, metrics = _pool_worker(
            (analyze_source, ("echo worker\n", BatchConfig()), True)
        )
        assert data["diagnostics"] == []
        assert metrics is not None
        assert metrics["counters"].get("symex.runs", 0) >= 1

    def test_pool_worker_skips_telemetry_when_untraced(self):
        from repro.analysis.batch import _pool_worker
        from repro.analysis.pipeline import analyze_source

        _, _, metrics = _pool_worker(
            (analyze_source, ("echo worker\n", BatchConfig()), False)
        )
        assert metrics is None

    def test_pool_run_folds_worker_metrics_into_parent(self, corpus):
        if not self._pool_available():
            pytest.skip("process pools unavailable in this sandbox")
        recorder = TraceRecorder()
        with use_recorder(recorder):
            batch = run_batch([str(corpus)], jobs=2, cache=None)
        assert len(batch.results) == 4
        # symex happened only in the workers, yet the parent recorder
        # sees it: the snapshots crossed the pool boundary
        assert recorder.counter("symex.runs") >= 4
        assert recorder.counter("batch.files") == 4  # parent-side count intact

    def test_inline_and_pool_metrics_agree(self, corpus):
        if not self._pool_available():
            pytest.skip("process pools unavailable in this sandbox")
        inline_rec, pool_rec = TraceRecorder(), TraceRecorder()
        with use_recorder(inline_rec):
            run_batch([str(corpus)], jobs=1, cache=None)
        with use_recorder(pool_rec):
            run_batch([str(corpus)], jobs=2, cache=None)
        assert inline_rec.counter("symex.runs") == pool_rec.counter("symex.runs")
        assert inline_rec.counter("symex.states_explored") == pool_rec.counter(
            "symex.states_explored"
        )
