"""Recorders: the no-op default, the metrics-only recorder and the
tracing one.

Design constraints (see ISSUE 1):

- the *disabled* path must be nearly free: :class:`NullRecorder` methods
  are empty, ``enabled`` is a plain class attribute, and hot loops guard
  span/histogram work behind ``if recorder.enabled:``;
- spans nest hierarchically and time with a monotonic clock
  (``time.perf_counter_ns``), injectable for deterministic tests;
- counters and histograms are named with dotted strings
  (``symex.states_explored``, ``rlang.dfa_states``) so exporters can
  group them without a schema.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

if TYPE_CHECKING:  # imported where a histogram or a snapshot is built
    from .metrics import Histogram, MetricsSnapshot


class SpanRecord:
    """One timed span; children are spans opened while it was active."""

    __slots__ = ("name", "start_ns", "end_ns", "attrs", "children")

    def __init__(self, name: str, start_ns: int, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs or {}
        self.children: List["SpanRecord"] = []

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def __repr__(self) -> str:
        return f"SpanRecord({self.name!r}, {self.duration_ms:.3f}ms)"


class _NullSpan:
    """Reusable inert context manager (singleton, allocation-free)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Base interface; also serves as the no-op implementation."""

    enabled: bool = False

    def span(self, name: str, **attrs: Any):
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> int:
        return 0

    def snapshot(self) -> MetricsSnapshot:
        from .metrics import MetricsSnapshot

        return MetricsSnapshot()

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot's counters/histograms in (no-op when disabled).

        This is how metrics cross execution boundaries: pool workers
        return a snapshot instead of mutating a recorder they don't
        share, and the server folds per-request recorders into totals.
        """


class NullRecorder(Recorder):
    """The default recorder: records nothing, costs ~nothing."""


class _Span:
    """Context-manager handle binding a named span to a recorder."""

    __slots__ = ("_recorder", "_name", "_attrs", "record")

    def __init__(self, recorder: "TraceRecorder", name: str, attrs: Dict[str, Any]):
        self._recorder = recorder
        self._name = name
        self._attrs = attrs
        self.record: Optional[SpanRecord] = None

    def __enter__(self) -> SpanRecord:
        self.record = self._recorder._open(self._name, self._attrs)
        return self.record

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._close(self.record)
        return False


class MetricsRecorder(Recorder):
    """Records counters and histograms; a span is the null span.

    This is the recorder for callers that keep metrics but export no
    trace, such as the analysis daemon's per-request and totals
    recorders and a pool worker shipping back a snapshot: ``enabled`` is
    true, so instrumentation counts and observes, while spans cost no
    allocation.  Counters and histograms are shared across threads
    (dict mutation is GIL-atomic for our usage).
    """

    enabled = True

    def __init__(self):
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, Histogram] = {}
        self._absorb_lock = threading.Lock()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            from .metrics import Histogram

            histogram = self.histograms[name] = Histogram()
        histogram.add(value)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        from .metrics import Histogram

        return self.histograms.get(name, Histogram())

    def snapshot(self) -> MetricsSnapshot:
        from .metrics import MetricsSnapshot

        return MetricsSnapshot(
            counters=dict(self.counters),
            histograms={
                name: h.copy() for name, h in self.histograms.items()
            },
        )

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Merge a snapshot's counters and histograms into this
        recorder (spans don't transfer: a long-lived recorder absorbing
        per-request snapshots keeps bounded memory)."""
        with self._absorb_lock:
            for name, value in snapshot.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value
            for name, histogram in snapshot.histograms.items():
                mine = self.histograms.get(name)
                if mine is None:
                    from .metrics import Histogram

                    mine = self.histograms[name] = Histogram()
                mine.merge(histogram)


class TraceRecorder(MetricsRecorder):
    """A :class:`MetricsRecorder` that also records hierarchical spans.

    Span nesting is tracked per thread.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        super().__init__()
        self._clock = clock
        self.origin_ns: int = clock()
        self.roots: List[SpanRecord] = []
        self._local = threading.local()
        self._roots_lock = threading.Lock()

    def span(self, name: str, **attrs: Any) -> _Span:
        return _Span(self, name, attrs)

    def _stack(self) -> List[SpanRecord]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: Dict[str, Any]) -> SpanRecord:
        record = SpanRecord(name, self._clock(), attrs)
        stack = self._stack()
        if stack:
            stack[-1].children.append(record)
        else:
            with self._roots_lock:
                self.roots.append(record)
        stack.append(record)
        return record

    def _close(self, record: Optional[SpanRecord]) -> None:
        if record is None:
            return
        record.end_ns = self._clock()
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        elif record in stack:  # mispaired exits: unwind to the record
            while stack and stack.pop() is not record:
                pass

    def iter_spans(self) -> Iterator[SpanRecord]:
        """All recorded spans, depth-first."""
        stack = list(reversed(self.roots))
        while stack:
            record = stack.pop()
            yield record
            stack.extend(reversed(record.children))

    @property
    def span_count(self) -> int:
        return sum(1 for _ in self.iter_spans())


# ---------------------------------------------------------------------------
# The active recorder
# ---------------------------------------------------------------------------

_NULL = NullRecorder()
_tls = threading.local()


def get_recorder() -> Recorder:
    """The recorder active on the calling thread (the no-op recorder by
    default)."""
    return getattr(_tls, "recorder", _NULL)


@contextmanager
def use_recorder(recorder: Recorder):
    """Scoped installation visible only to the *calling thread*; the
    previous recorder is restored on exit.

    Thread scoping isolates concurrent request handlers from one
    another: each server thread records into its own request-scoped
    recorder while other threads keep seeing theirs (or the no-op
    default).  Work handed to another thread does not inherit it.
    """
    previous = getattr(_tls, "recorder", _NULL)
    _tls.recorder = recorder
    try:
        yield recorder
    finally:
        _tls.recorder = previous
