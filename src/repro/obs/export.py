"""Exporters for :class:`~repro.obs.TraceRecorder` data.

Four views of the same run:

- :func:`chrome_trace` — the Chrome trace-event JSON format (open
  ``chrome://tracing`` or https://ui.perfetto.dev and load the file);
- :func:`render_tree` — a human-readable span tree for terminals;
- :func:`render_stats` — a summary table of counters, histograms, and
  per-span-name aggregate wall time (the ``--stats`` output);
- :func:`prometheus_text` — the Prometheus text exposition format for
  a :class:`~repro.obs.MetricsSnapshot` (``repro-top --metrics``
  renders it client-side from one ``stats`` response; the daemon has
  no separate ``metrics`` op), so any standard scraper can consume the
  daemon's counters.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Optional, Tuple

from .metrics import MetricsSnapshot
from .recorder import SpanRecord, TraceRecorder


def chrome_trace(recorder: TraceRecorder) -> dict:
    """The run as a Chrome trace-event document (``traceEvents`` JSON)."""
    events: List[dict] = []
    origin = recorder.origin_ns
    last_ts = 0.0
    for record in recorder.iter_spans():
        ts = (record.start_ns - origin) / 1000.0  # microseconds
        dur = record.duration_ns / 1000.0
        last_ts = max(last_ts, ts + dur)
        event = {
            "name": record.name,
            "cat": "repro",
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": 1,
            "tid": 1,
        }
        if record.attrs:
            event["args"] = dict(record.attrs)
        events.append(event)
    for name in sorted(recorder.counters):
        events.append(
            {
                "name": name,
                "cat": "repro.counters",
                "ph": "C",
                "ts": last_ts,
                "pid": 1,
                "args": {"value": recorder.counters[name]},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(recorder: TraceRecorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(recorder), handle, indent=1)


def render_tree(recorder: TraceRecorder, max_depth: Optional[int] = None) -> str:
    """A box-drawing rendering of the span hierarchy with durations."""
    lines: List[str] = []

    def walk(record: SpanRecord, line_prefix: str, child_prefix: str, depth: int) -> None:
        label = f"{record.name}  {record.duration_ms:.3f}ms"
        if record.attrs:
            label += "  " + " ".join(f"{k}={v}" for k, v in record.attrs.items())
        lines.append(line_prefix + label)
        if max_depth is not None and depth + 1 > max_depth:
            if record.children:
                lines.append(child_prefix + f"… {len(record.children)} child span(s)")
            return
        for idx, child in enumerate(record.children):
            last = idx == len(record.children) - 1
            walk(
                child,
                child_prefix + ("└─ " if last else "├─ "),
                child_prefix + ("   " if last else "│  "),
                depth + 1,
            )

    for root in recorder.roots:
        walk(root, "", "", 0)
    return "\n".join(lines)


def span_aggregates(recorder: TraceRecorder) -> Dict[str, Tuple[int, int]]:
    """Per span name: (number of spans, total wall time in ns)."""
    totals: Dict[str, Tuple[int, int]] = {}
    for record in recorder.iter_spans():
        count, total = totals.get(record.name, (0, 0))
        totals[record.name] = (count + 1, total + record.duration_ns)
    return totals


def render_stats(recorder: TraceRecorder) -> str:
    """The ``--stats`` summary table (counters, histograms, span times)."""
    lines: List[str] = []
    width = 44

    def row(name: str, value: str) -> str:
        pad = max(1, width - len(name))
        return f"  {name} {'.' * pad} {value}"

    counters = recorder.counters
    if counters:
        lines.append("counters")
        for name in sorted(counters):
            lines.append(row(name, str(counters[name])))
    histograms = recorder.histograms
    if histograms:
        lines.append("histograms")
        for name in sorted(histograms):
            lines.append(row(name, histograms[name].describe()))
    aggregates = span_aggregates(recorder)
    if aggregates:
        lines.append("spans (wall time)")
        for name in sorted(aggregates, key=lambda n: -aggregates[n][1]):
            count, total_ns = aggregates[name]
            lines.append(row(name, f"n={count} total={total_ns / 1e6:.3f}ms"))
    if not lines:
        return "(no telemetry recorded)"
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    """A dotted internal metric name as a legal Prometheus identifier
    (``batch.cache.hit`` -> ``repro_batch_cache_hit``)."""
    flat = _METRIC_NAME_RE.sub("_", name)
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{prefix}_{flat}" if prefix else flat


def _prom_value(value) -> str:
    if value is None:
        return "NaN"
    return repr(float(value))


def prometheus_text(
    snapshot: MetricsSnapshot,
    gauges: Optional[Dict[str, float]] = None,
    prefix: str = "repro",
) -> str:
    """A metrics snapshot in the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total`` counter series;
    histograms become summaries (quantile series plus ``_sum`` and
    ``_count``); ``gauges`` carries point-in-time values the snapshot
    doesn't (uptime, in-flight requests).  Output ends with a newline
    as the format requires.
    """
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot.counters[name]}")
    for name in sorted(snapshot.histograms):
        histogram = snapshot.histograms[name]
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        for quantile in (0.5, 0.95, 0.99):
            lines.append(
                f'{metric}{{quantile="{quantile}"}} '
                f"{_prom_value(histogram.percentile(quantile * 100))}"
            )
        lines.append(f"{metric}_sum {_prom_value(histogram.total)}")
        lines.append(f"{metric}_count {histogram.count}")
    for name in sorted(gauges or {}):
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(gauges[name])}")
    return "\n".join(lines) + "\n"
