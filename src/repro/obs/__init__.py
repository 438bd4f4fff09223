"""Observability: tracing spans, counters, and histograms for the analyzer.

The paper's pitch is that ahead-of-time shell analysis is feasible *at
interactive speed*; this package is the measurement substrate that keeps
that claim honest.  It is deliberately zero-dependency and built around
three pieces:

- :class:`NullRecorder` — the default.  Every instrumentation point in
  the hot paths either calls a no-op method or is guarded by
  ``recorder.enabled``, so disabled telemetry costs almost nothing.
- :class:`TraceRecorder` — hierarchical spans with monotonic timing,
  named counters, and histograms.
- :mod:`repro.obs.export` — Chrome ``chrome://tracing`` JSON, a
  human-readable span tree, and a stats summary table.

Usage::

    from repro.obs import TraceRecorder, use_recorder

    recorder = TraceRecorder()
    with use_recorder(recorder):
        analyze(source)
    print(recorder.render_stats())

Instrumented code never holds a recorder directly; it asks
:func:`get_recorder` (or captures it per run) so the active recorder can
be swapped per invocation.  :func:`use_recorder` is the one way to
install a recorder, and it scopes to the calling thread, like
``resilience.use_budget``: concurrent server requests each record into
their own.
"""

from .log import NullOpsLogger, OpsLogger
from .metrics import Histogram, MetricsSnapshot
from .recorder import (
    NullRecorder,
    Recorder,
    SpanRecord,
    TraceRecorder,
    get_recorder,
    traced,
    use_recorder,
)

__all__ = [
    "Histogram",
    "MetricsSnapshot",
    "NullOpsLogger",
    "NullRecorder",
    "OpsLogger",
    "Recorder",
    "SpanRecord",
    "TraceRecorder",
    "get_recorder",
    "traced",
    "use_recorder",
]
