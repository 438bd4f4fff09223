"""Cache fault classes: a full disk and bit rot must cost a counter,
never a result — and the output must be byte-identical to a fault-free
run (the cache is an accelerator, not a dependency)."""

import os
import warnings

import pytest

from repro.analysis import BatchConfig, run_batch
from repro.analysis import cache as cache_mod
from repro.analysis.cache import ResultCache
from repro.obs import TraceRecorder, use_recorder

from .conftest import corpus
from .faults import FaultyCache


def _render(tmp_path, cache):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        batch = run_batch(
            [corpus(tmp_path)], config=BatchConfig(), jobs=1, cache=cache
        )
    return batch.render(), recorder.snapshot(), batch


class TestWriteFaults:
    def test_enospc_degrades_to_uncached_not_fatal(self, tmp_path):
        cache = FaultyCache(str(tmp_path / "cache"), "enospc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            output, snapshot, batch = _render(tmp_path, cache)
        assert batch.results  # every file still analyzed
        assert snapshot.counter("batch.cache.write_errors") >= 3
        assert not os.path.exists(tmp_path / "cache") or not any(
            files for _, _, files in os.walk(tmp_path / "cache")
        )
        runtime = [w for w in caught if w.category is RuntimeWarning]
        assert len(runtime) == 1  # once per process, not per file

    def test_write_warning_fires_once_per_process(self, tmp_path, monkeypatch):
        cache = FaultyCache(str(tmp_path / "cache"), "enospc")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with use_recorder(TraceRecorder()):
                assert cache.put("aa" * 32, {"schema": 1}) is False
                assert cache.put("bb" * 32, {"schema": 1}) is False
        assert len([w for w in caught if w.category is RuntimeWarning]) == 1
        monkeypatch.setattr(cache_mod, "_write_warned", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with use_recorder(TraceRecorder()):
                cache.put("cc" * 32, {"schema": 1})
        assert len([w for w in caught if w.category is RuntimeWarning]) == 1

    def test_output_byte_identical_to_fault_free_run(self, tmp_path):
        healthy, _, _ = _render(tmp_path, ResultCache(str(tmp_path / "h")))
        faulty, _, _ = _render(tmp_path, FaultyCache(str(tmp_path / "f"), "enospc"))
        uncached, _, _ = _render(tmp_path, None)
        assert faulty == healthy == uncached


class TestReadFaults:
    def test_corrupt_entry_reads_as_miss_and_counts(self, tmp_path):
        # healthy first run populates the cache
        cache_dir = str(tmp_path / "cache")
        _render(tmp_path, ResultCache(cache_dir))
        # tear every entry (bit rot)
        torn = 0
        for root, _, files in os.walk(cache_dir):
            for name in files:
                path = os.path.join(root, name)
                with open(path) as handle:
                    body = handle.read()
                with open(path, "w") as handle:
                    handle.write(body[: len(body) // 3])
                torn += 1
        assert torn >= 3
        output, snapshot, batch = _render(tmp_path, ResultCache(cache_dir))
        assert batch.results
        assert snapshot.counter("batch.cache.corrupt") >= 3
        assert snapshot.counter("batch.cache.hit") == 0
        # re-analysis repaired the cache: third run is all hits
        _, snapshot3, _ = _render(tmp_path, ResultCache(cache_dir))
        assert snapshot3.counter("batch.cache.hit") >= 3

    def test_chaos_torn_write_recovers_byte_identically(self, tmp_path):
        healthy, _, _ = _render(tmp_path, None)
        cache = FaultyCache(str(tmp_path / "cache"), "torn")
        first, _, _ = _render(tmp_path, cache)  # writes land torn
        second, snapshot, _ = _render(tmp_path, cache)  # reads the tears
        assert first == second == healthy
        assert snapshot.counter("batch.cache.corrupt") >= 3


class TestDegradedNeverCached:
    def test_degraded_results_skip_the_cache(self, tmp_path):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        for index in range(3):
            (scripts / f"s{index}.sh").write_text(
                "echo a\necho b\necho c\necho d\n"
            )
        cache_dir = str(tmp_path / "cache")
        config = BatchConfig(max_states=1)  # guarantees degradation
        with use_recorder(TraceRecorder()):
            batch = run_batch(
                [str(scripts)],
                config=config,
                jobs=1,
                cache=ResultCache(cache_dir),
            )
        assert batch.degraded
        entries = [
            name
            for _, _, files in os.walk(cache_dir)
            for name in files
        ]
        assert entries == []
