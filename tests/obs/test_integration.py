"""Telemetry threaded through the real pipeline: the analyzer fills the
expected counters and spans, truncation is surfaced instead of silent,
and `repro-analyze --stats` reports them end-to-end."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro import cli
from repro.analysis import analyze
from repro.obs import TraceRecorder, use_recorder
from repro.symex import Engine

REPO_ROOT = Path(__file__).resolve().parents[2]


def quickstart_script() -> str:
    """The shell script embedded in examples/quickstart.py."""
    spec = importlib.util.spec_from_file_location(
        "quickstart", REPO_ROOT / "examples" / "quickstart.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SCRIPT


#: forks an unmergeable state pair per guard: 2^4 = 16 distinct worlds
BRANCHY = "\n".join(
    f"if probe{i}; then V{i}=a; else V{i}=b; fi" for i in range(4)
)


class TestAnalyzerTelemetry:
    def test_quickstart_counters(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            report = analyze(quickstart_script())
        assert report.has("dangerous-deletion")
        assert recorder.counter("symex.states_explored") > 0
        assert recorder.counter("specs.lookup_hits") > 0
        assert recorder.counter("rlang.determinise_calls") > 0

    def test_phase_spans_recorded(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            analyze("echo hello\n", include_lint=True)
        names = {span.name for span in recorder.iter_spans()}
        assert {"analyze.parse", "analyze.symex", "symex.run", "lint.run"} <= names

    def test_eval_spans_nest_under_symex_run(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            analyze("mkdir /tmp/x\n")
        [symex] = [s for s in recorder.iter_spans() if s.name == "analyze.symex"]
        flat = []
        stack = list(symex.children)
        while stack:
            record = stack.pop()
            flat.append(record.name)
            stack.extend(record.children)
        assert any(name.startswith("eval.") for name in flat)

    def test_monitor_stats_fold_into_metrics(self):
        from repro.monitor import StreamMonitor
        from repro.rtypes import StreamType

        recorder = TraceRecorder()
        with use_recorder(recorder):
            monitor = StreamMonitor(StreamType.of("[a-z]+"), on_violation="count")
            list(monitor.filter(["good", "BAD!", "fine"]))
        assert recorder.counter("monitor.lines_checked") == 3
        assert recorder.counter("monitor.violations") == 1
        assert monitor.stats.as_metrics() == {
            "monitor.lines_checked": 3,
            "monitor.violations": 1,
        }


class TestTruncationSurfaced:
    def test_engine_counts_truncations_and_warns(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            result = Engine(max_fork=4).run_script(BRANCHY)
        assert result.truncations > 0
        assert recorder.counter("symex.truncations") == result.truncations
        [diag] = [d for d in result.diagnostics if d.code == "analysis-truncated"]
        assert "incomplete" in diag.message
        assert diag.severity.value == "info"

    def test_no_truncation_no_diagnostic(self):
        result = Engine(max_fork=64).run_script(BRANCHY)
        assert result.truncations == 0
        assert not any(d.code == "analysis-truncated" for d in result.diagnostics)

    def test_report_carries_truncations(self):
        report = analyze(BRANCHY, max_fork=4)
        assert report.truncations > 0
        assert report.has("analysis-truncated")
        assert "[truncated" in report.render()


class TestCliStatsGolden:
    def test_analyze_stats_reports_states_explored(self, tmp_path, capsys):
        """Golden check: --stats on the quickstart script shows a nonzero
        symex.states_explored counter."""
        script = tmp_path / "quickstart.sh"
        script.write_text(quickstart_script())
        code = cli.main_analyze([str(script), "--stats"])
        captured = capsys.readouterr()
        assert code == 1  # the Steam updater core is unsafe
        match = re.search(
            r"symex\.states_explored\s\.+\s(\d+)", captured.err
        )
        assert match, captured.err
        assert int(match.group(1)) > 0
        assert "spans (wall time)" in captured.err
        assert "analyze.symex" in captured.err

    def test_analyze_trace_writes_chrome_json(self, tmp_path, capsys):
        script = tmp_path / "s.sh"
        script.write_text("echo hello\n")
        trace = tmp_path / "trace.json"
        code = cli.main_analyze([str(script), "--trace", str(trace)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(trace.read_text())
        assert doc["traceEvents"]
        assert all("ph" in event for event in doc["traceEvents"])
        names = {e["name"] for e in doc["traceEvents"]}
        assert "repro-analyze" in names
        assert "symex.states_explored" in names

    def test_without_flags_no_stats_output(self, tmp_path, capsys):
        script = tmp_path / "s.sh"
        script.write_text("echo hello\n")
        cli.main_analyze([str(script)])
        captured = capsys.readouterr()
        assert "counters" not in captured.err

    def test_lint_stats(self, tmp_path, capsys):
        script = tmp_path / "s.sh"
        script.write_text("rm $X\n")
        cli.main_lint([str(script), "--stats"])
        captured = capsys.readouterr()
        assert "lint.rules_run" in captured.err
