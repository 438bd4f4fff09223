"""Observability: tracing spans, counters, and histograms for the analyzer.

The paper's pitch is that ahead-of-time shell analysis is feasible *at
interactive speed*; this package is the measurement substrate that keeps
that claim honest.  It is deliberately zero-dependency and built around
three pieces:

- :class:`NullRecorder` — the default.  Every instrumentation point in
  the hot paths either calls a no-op method or is guarded by
  ``recorder.enabled``, so disabled telemetry costs almost nothing.
- :class:`MetricsRecorder` — named counters and histograms; its spans
  are the null span (the daemon's recorders, which export no trace).
- :class:`TraceRecorder` — a metrics recorder that also keeps
  hierarchical spans with monotonic timing.
- :mod:`repro.obs.export` — Chrome ``chrome://tracing`` JSON, a
  human-readable span tree, and a stats summary table.

Usage::

    from repro.obs import TraceRecorder, use_recorder
    from repro.obs.export import render_stats

    recorder = TraceRecorder()
    with use_recorder(recorder):
        analyze(source)
    print(render_stats(recorder))

Instrumented code never holds a recorder directly; it asks
:func:`get_recorder` (or captures it per run) so the active recorder can
be swapped per invocation.  :func:`use_recorder` is the one way to
install a recorder, and it scopes to the calling thread, like
``budget.use_budget``: concurrent server requests each record into
their own.

The ops logger and the metric types load on first use (PEP 562): an
analysis with the no-op recorder never imports them.
"""

from ..lazy import exports
from .recorder import (
    MetricsRecorder,
    NullRecorder,
    Recorder,
    SpanRecord,
    TraceRecorder,
    get_recorder,
    use_recorder,
)

#: lazily exported name -> the submodule defining it
_LAZY = {
    **dict.fromkeys(("NullOpsLogger", "OpsLogger"), "log"),
    **dict.fromkeys(("Histogram", "MetricsSnapshot"), "metrics"),
}
__getattr__ = exports(globals(), _LAZY)


__all__ = [
    "Histogram",
    "MetricsRecorder",
    "MetricsSnapshot",
    "NullOpsLogger",
    "NullRecorder",
    "OpsLogger",
    "Recorder",
    "SpanRecord",
    "TraceRecorder",
    "get_recorder",
    "use_recorder",
]
