"""Unit tests for the telemetry recorders: span nesting, counter and
histogram aggregation, recorder scoping, and the no-op default."""

import threading

import pytest

from repro.obs import (
    NullRecorder,
    TraceRecorder,
    get_recorder,
    use_recorder,
)


class FakeClock:
    """Deterministic monotonic clock: advances 1000ns per reading."""

    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 1000
        return self.now


def make_recorder():
    return TraceRecorder(clock=FakeClock())


class TestNullRecorder:
    def test_default_recorder_is_noop(self):
        recorder = get_recorder()
        assert recorder.enabled is False

    def test_all_operations_are_inert(self):
        recorder = NullRecorder()
        recorder.count("x")
        recorder.observe("y", 3.0)
        with recorder.span("z") as span:
            pass
        assert recorder.counter("x") == 0
        assert recorder.snapshot().counters == {}

    def test_span_handle_is_shared_singleton(self):
        recorder = NullRecorder()
        assert recorder.span("a") is recorder.span("b")


class TestSpans:
    def test_nesting_builds_a_tree(self):
        recorder = make_recorder()
        with recorder.span("outer"):
            with recorder.span("inner-1"):
                pass
            with recorder.span("inner-2"):
                with recorder.span("leaf"):
                    pass
        [outer] = recorder.roots
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_sibling_roots(self):
        recorder = make_recorder()
        with recorder.span("a"):
            pass
        with recorder.span("b"):
            pass
        assert [r.name for r in recorder.roots] == ["a", "b"]

    def test_durations_are_monotonic_and_nested(self):
        recorder = make_recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        [outer] = recorder.roots
        [inner] = outer.children
        assert outer.duration_ns > inner.duration_ns > 0
        assert outer.start_ns <= inner.start_ns
        assert inner.end_ns <= outer.end_ns

    def test_span_attrs_recorded(self):
        recorder = make_recorder()
        with recorder.span("op", node="If") as record:
            pass
        assert record.attrs == {"node": "If"}

    def test_exception_still_closes_span(self):
        recorder = make_recorder()
        with pytest.raises(RuntimeError):
            with recorder.span("failing"):
                raise RuntimeError("boom")
        [record] = recorder.roots
        assert record.end_ns is not None

    def test_iter_spans_depth_first(self):
        recorder = make_recorder()
        with recorder.span("a"):
            with recorder.span("b"):
                pass
            with recorder.span("c"):
                pass
        assert [s.name for s in recorder.iter_spans()] == ["a", "b", "c"]
        assert recorder.span_count == 3


class TestMetrics:
    def test_counters_aggregate(self):
        recorder = make_recorder()
        recorder.count("symex.states_explored")
        recorder.count("symex.states_explored")
        recorder.count("symex.states_explored", 3)
        assert recorder.counter("symex.states_explored") == 5
        assert recorder.counter("missing") == 0

    def test_histograms_track_summary_stats(self):
        recorder = make_recorder()
        for value in (4, 2, 9):
            recorder.observe("rlang.dfa_states", value)
        histogram = recorder.histogram("rlang.dfa_states")
        assert histogram.count == 3
        assert histogram.minimum == 2
        assert histogram.maximum == 9
        assert histogram.mean == pytest.approx(5.0)

    def test_snapshot_is_a_copy(self):
        recorder = make_recorder()
        recorder.count("a")
        recorder.observe("h", 1)
        snap = recorder.snapshot()
        recorder.count("a")
        recorder.observe("h", 2)
        assert snap.counter("a") == 1
        assert snap.histograms["h"].count == 1

    def test_snapshot_merge(self):
        recorder = make_recorder()
        recorder.count("a", 2)
        recorder.observe("h", 5)
        one = recorder.snapshot()
        two = recorder.snapshot()
        one.merge(two)
        assert one.counter("a") == 4
        assert one.histograms["h"].count == 2


class TestScoping:
    def test_use_recorder_restores_previous(self):
        outer = get_recorder()
        recorder = make_recorder()
        with use_recorder(recorder):
            assert get_recorder() is recorder
        assert get_recorder() is outer

    def test_use_recorder_restores_on_exception(self):
        outer = get_recorder()
        with pytest.raises(ValueError):
            with use_recorder(make_recorder()):
                raise ValueError()
        assert get_recorder() is outer

    def test_use_recorder_scopes_to_the_calling_thread(self):
        recorder = make_recorder()
        seen = []
        with use_recorder(recorder):
            other = threading.Thread(target=lambda: seen.append(get_recorder()))
            other.start()
            other.join(5)
            assert not other.is_alive()
            assert get_recorder() is recorder
        assert seen[0].enabled is False


class TestThreadSafety:
    def test_spans_nest_per_thread(self):
        recorder = make_recorder()
        done = threading.Event()

        def worker():
            with recorder.span("thread-root"):
                done.set()

        with recorder.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        names = sorted(r.name for r in recorder.roots)
        assert names == ["main-root", "thread-root"]
        assert done.is_set()
