"""Regression: a later redefinition of a function must shadow the
earlier one at *call* time, in every forked state.

The engine binds ``FunctionDef`` at definition time (correct — POSIX
functions are dynamic bindings), but path merging used to ignore the
function table: a path that redefined ``f`` could be merged into a
sibling that kept the original body, and the redefinition silently
vanished at the next call site.
"""

from repro.analysis import analyze
from repro.symex import Engine
from repro.symex.state import SymState


def _codes(report):
    return [d.code for d in report.diagnostics]


class TestRedefinitionShadowing:
    def test_straight_line_redefinition_shadows(self):
        report = analyze(
            "f() { echo safe; }\n"
            "f() { rm -rf \"$HOME/\"; }\n"
            "f\n"
        )
        assert "dangerous-deletion" in _codes(report)

    def test_call_between_definitions_uses_each_binding(self):
        # the first call sees the safe body, the second the dangerous one
        report = analyze(
            "f() { echo safe; }\n"
            "f\n"
            "f() { rm -rf \"$HOME/\"; }\n"
            "f\n"
        )
        assert "dangerous-deletion" in _codes(report)

    def test_redefinition_in_branch_survives_merge(self):
        # the danger lives only on the else path; merging it into the
        # then path's state used to drop the redefined body entirely
        report = analyze(
            "f() { echo safe; }\n"
            "if [ -f /tmp/marker ]; then\n"
            "  :\n"
            "else\n"
            "  f() { rm -rf \"$HOME/\"; }\n"
            "fi\n"
            "f\n"
        )
        assert "dangerous-deletion" in _codes(report)

    def test_prune_keeps_states_with_distinct_bindings(self):
        engine = Engine()
        body_a = object()
        body_b = object()
        s1 = SymState(functions={"f": body_a}, status=0)
        s2 = SymState(functions={"f": body_b}, status=0)
        assert len(engine.merge_states([s1, s2])) == 2

    def test_prune_still_merges_identical_bindings(self):
        engine = Engine()
        body = object()
        s1 = SymState(functions={"f": body}, status=0)
        s2 = SymState(functions={"f": body}, status=0)
        assert len(engine.merge_states([s1, s2])) == 1
