"""Resource budgets, degradation semantics, and checker fault isolation."""

import threading

import pytest

from repro.analysis import analyze
from repro.budget import (
    HARD_DFA_STATE_CAP,
    AnalysisBudgetExceeded,
    ResourceBudget,
    enforce_dfa_cap,
    get_budget,
    use_budget,
)
from repro.checkers import default_checkers
from repro.diag import (
    Severity,
    exception_digest,
    internal_error_diagnostic,
    quarantine_diagnostic,
)
from repro.symex import Engine
from repro.obs import TraceRecorder, use_recorder

BRANCHY = "\n".join(
    f"if test -f /srv/f{i}; then echo {i}; fi" for i in range(30)
)


class TestResourceBudget:
    def test_unlimited_by_default(self):
        budget = ResourceBudget()
        for _ in range(1000):
            budget.charge_state()
        budget.check_deadline("symex")
        budget.check_dfa_states(10**9)

    def test_state_cap_trips_past_limit(self):
        budget = ResourceBudget(max_states=5)
        for _ in range(5):
            budget.charge_state()
        with pytest.raises(AnalysisBudgetExceeded) as exc:
            budget.charge_state()
        assert exc.value.budget == "states"
        assert exc.value.phase == "symex"

    def test_deadline_trips(self):
        budget = ResourceBudget(deadline=0.0)
        with pytest.raises(AnalysisBudgetExceeded) as exc:
            budget.check_deadline("symex")
        assert exc.value.budget == "deadline"

    def test_dfa_cap_trips(self):
        budget = ResourceBudget(max_dfa_states=10)
        budget.check_dfa_states(10)
        with pytest.raises(AnalysisBudgetExceeded) as exc:
            budget.check_dfa_states(11, "rlang.product")
        assert exc.value.budget == "dfa-states"
        assert exc.value.phase == "rlang.product"

    def test_start_rearms_meters(self):
        budget = ResourceBudget(max_states=3)
        for _ in range(3):
            budget.charge_state()
        budget.start()
        for _ in range(3):
            budget.charge_state()  # does not trip: meter was reset

    def test_trips_are_counted(self):
        recorder = TraceRecorder()
        budget = ResourceBudget(max_states=1)
        with use_recorder(recorder):
            budget.charge_state()
            with pytest.raises(AnalysisBudgetExceeded):
                budget.charge_state()
        assert recorder.counter("budget.states") == 1

    def test_tightened_halves_and_bounds_everything(self):
        tight = ResourceBudget(deadline=8.0, max_states=1000).tightened()
        assert tight.deadline == 4.0
        assert tight.max_states == 500
        # unset limits acquire conservative defaults: a retry is always bounded
        assert tight.max_dfa_states is not None
        fully_default = ResourceBudget().tightened()
        assert fully_default.deadline is not None
        assert fully_default.max_states is not None

    def test_active_budget_registry_nests(self):
        outer, inner = ResourceBudget(), ResourceBudget()
        assert get_budget() is None
        with use_budget(outer):
            assert get_budget() is outer
            with use_budget(inner):
                assert get_budget() is inner
            assert get_budget() is outer
        assert get_budget() is None

    def test_active_budget_is_per_thread(self):
        # two request threads whose budget scopes interleave: A enters,
        # B enters, A leaves while B is still inside, then B leaves
        a_budget = ResourceBudget(max_dfa_states=10)
        b_budget = ResourceBudget(max_states=1000)
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def thread_a():
            with use_budget(a_budget):
                a_in.set()
                b_in.wait(5)
            a_out.set()

        def thread_b():
            a_in.wait(5)
            with use_budget(b_budget):
                b_in.set()
                a_out.wait(5)
                seen["inside"] = get_budget()
            seen["after"] = get_budget()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen == {"inside": b_budget, "after": None}
        assert get_budget() is None
        later = []
        probe = threading.Thread(target=lambda: later.append(get_budget()))
        probe.start()
        probe.join(5)
        assert later == [None]

    def test_hard_dfa_cap_is_unconditional(self):
        enforce_dfa_cap(HARD_DFA_STATE_CAP)
        with pytest.raises(AnalysisBudgetExceeded):
            enforce_dfa_cap(HARD_DFA_STATE_CAP + 1)


class TestDiagnostics:
    def test_exception_digest_is_stable_and_short(self):
        first = exception_digest(ValueError("boom"))
        second = exception_digest(ValueError("boom"))
        assert first == second
        assert "ValueError" in first and "boom" in first

    def test_exception_digest_truncates_long_messages(self):
        digest = exception_digest(ValueError("x" * 500))
        assert len(digest) < 160

    def test_internal_error_diagnostic_shape(self):
        diag = internal_error_diagnostic("checker 'x'", RuntimeError("bad"))
        assert diag.code == "internal-error"
        assert diag.severity is Severity.INFO
        assert diag.always
        assert "checker 'x'" in diag.message

    def test_quarantine_diagnostic_mentions_both_failures(self):
        diag = quarantine_diagnostic(OSError("worker died"), ValueError("again"))
        assert diag.code == "analysis-quarantined"
        assert "worker died" in diag.message and "again" in diag.message


class _CrashingChecker:
    name = "crasher"

    def __init__(self):
        self.calls = 0

    def on_command(self, state, node, argv, spec):
        self.calls += 1
        raise RuntimeError("checker bug")

    def finish(self, states):
        return []


class TestGuardedChecker:
    """The engine guards every checker against its own faults: checkers
    are passed to ``analyze()`` and ``Engine()`` as they are, unwrapped."""

    def test_crash_becomes_internal_error_diag(self):
        report = analyze("echo one\necho two\n", checkers=[_CrashingChecker()])
        [diag] = report.by_code("internal-error")
        assert "checker 'crasher' (on_command) crashed: RuntimeError: checker bug" in diag.message
        assert report.degraded

    def test_checker_disabled_after_first_crash(self):
        checker = _CrashingChecker()
        analyze("echo one\necho two\necho three\n", checkers=[checker])
        assert checker.calls == 1

    def test_disabled_in_every_hook(self):
        class TwoHooks(_CrashingChecker):
            finished = False

            def finish(self, states):
                self.finished = True
                return []

        checker = TwoHooks()
        result = Engine(checkers=[checker]).run_script("echo one\necho two\n")
        assert checker.calls == 1 and not checker.finished
        assert len(result.by_code("internal-error")) == 1

    def test_faults_are_counted(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            analyze("echo hi\necho again\n", checkers=[_CrashingChecker()])
        assert recorder.counter("checker.faults") == 1

    def test_budget_exhaustion_propagates_through_guard(self):
        class Budgeted:
            name = "budgeted"

            def on_command(self, state, node, argv, spec):
                raise AnalysisBudgetExceeded("symex", "states", "test")

        with pytest.raises(AnalysisBudgetExceeded):
            Engine(checkers=[Budgeted()]).run_script("echo hi\n")
        report = analyze("echo hi\n", checkers=[Budgeted()])
        assert report.degraded
        assert report.has("analysis-degraded")
        assert not report.has("internal-error")

    def test_other_checkers_still_report(self):
        report = analyze("rm -rf /\n", checkers=default_checkers() + [_CrashingChecker()])
        assert report.has("internal-error")
        assert report.has("dangerous-deletion")
        assert report.unsafe  # the deletion checker still fired


class TestAnalyzeDegradation:
    def test_state_budget_yields_partial_report(self):
        report = analyze(BRANCHY, budget=ResourceBudget(max_states=5))
        assert report.degraded
        [diag] = report.by_code("analysis-degraded")
        assert diag.severity is Severity.INFO
        assert "states budget" in diag.message
        assert report.paths_explored > 0  # partial progress is reported
        report.render()  # and it renders

    def test_zero_deadline_degrades(self):
        report = analyze(BRANCHY, budget=ResourceBudget(deadline=0.0))
        assert report.degraded
        assert "deadline" in report.by_code("analysis-degraded")[0].message

    def test_depth_bomb_degrades_without_recursion_error(self):
        bomb = "(" * 300 + "echo hi" + ")" * 300
        report = analyze(bomb, budget=ResourceBudget())
        assert report.degraded
        assert "depth" in report.by_code("analysis-degraded")[0].message

    @pytest.mark.parametrize("opening,closing", [
        ("$(", ")"), ("echo $(", ")"), ('echo "$(', ')"'), ('echo "${x:-$(', ')}"'),
    ])
    def test_a_thousand_nested_substitutions_degrade(self, opening, closing):
        """The parse of each body counts one level, so the nest stops at
        the parser's ceiling instead of Python's recursion limit."""
        report = analyze(opening * 1000 + "echo hi" + closing * 1000)
        assert report.degraded
        assert "depth" in report.by_code("analysis-degraded")[0].message

    def test_depth_bomb_safe_even_without_budget(self):
        bomb = "$(" * 200 + "echo hi" + ")" * 200
        report = analyze(bomb)
        assert report.degraded
        report.render()

    def test_unbudgeted_analysis_unchanged(self):
        report = analyze(BRANCHY)
        assert not report.degraded
        assert not report.by_code("analysis-degraded")

    def test_degradations_counted(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            analyze(BRANCHY, budget=ResourceBudget(max_states=5))
        assert recorder.counter("analyze.degraded") == 1

    def test_internal_crash_becomes_report(self, monkeypatch):
        from repro.analysis import analyzer as analyzer_mod

        class ExplodingEngine:
            def __init__(self, *args, **kwargs):
                raise RuntimeError("engine exploded")

        monkeypatch.setattr(analyzer_mod, "Engine", ExplodingEngine)
        recorder = TraceRecorder()
        with use_recorder(recorder):
            report = analyze("echo hi")
        assert report.has("internal-error")
        assert recorder.counter("analyze.internal_errors") == 1
        report.render()

    def test_lint_crash_is_isolated(self, monkeypatch):
        from repro.analysis import analyzer as analyzer_mod

        def exploding_lint(source):
            raise RuntimeError("lint exploded")

        monkeypatch.setattr(analyzer_mod, "run_lint", exploding_lint)
        report = analyze("echo hi", include_lint=True)
        assert report.has("internal-error")
        assert report.states == 1  # the semantic phase still completed
