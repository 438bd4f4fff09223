"""Cost of `case` evaluation: the automaton work per arm must not grow
with the number of checkers or with the number of forked states that
reach the same `case`."""

from repro.checkers import default_checkers
from repro.checkers.deletion import DangerousDeletionChecker
from repro.obs import TraceRecorder, use_recorder
from repro.symex import Engine
from repro.symex import engine as engine_mod

CASE = """\
case "$1" in
  start) OUT=1 ;;
  stop|halt) OUT=2 ;;
  -*) OUT=3 ;;
  *.sh) OUT=4 ;;
esac
"""

#: two states (X=a, X=b) reach the `case`
FORKED = 'if [ -n "$2" ]; then X=a; else X=b; fi\n' + CASE


def _product_calls(checkers, source=CASE):
    recorder = TraceRecorder()
    with use_recorder(recorder):
        Engine(checkers=checkers).run_script(source, n_args=2)
    return recorder.counters.get("rlang.product_calls", 0)


class TestCaseArmCost:
    def test_product_calls_do_not_scale_with_checkers(self):
        checkers = default_checkers()
        assert len(checkers) == 6
        one = _product_calls([DangerousDeletionChecker()])
        assert one > 0
        assert _product_calls(checkers) == one

    def test_pattern_compiled_once_across_forks(self, monkeypatch):
        compiled = []
        real = engine_mod.word_pattern_to_regex

        def counting(word):
            compiled.append(word.raw)
            return real(word)

        monkeypatch.setattr(engine_mod, "word_pattern_to_regex", counting)
        engine = Engine(checkers=default_checkers())
        result = engine.run_script(FORKED, n_args=2)
        assert len(result.states) > 2
        assert sorted(compiled) == sorted(["start", "stop", "halt", "-*", "*.sh"])

    def test_each_run_compiles_afresh(self, monkeypatch):
        compiled = []
        real = engine_mod.word_pattern_to_regex

        def counting(word):
            compiled.append(word.raw)
            return real(word)

        monkeypatch.setattr(engine_mod, "word_pattern_to_regex", counting)
        engine = Engine(checkers=default_checkers())
        engine.run_script(CASE, n_args=2)
        engine.run_script(CASE, n_args=2)
        assert len(compiled) == 2 * 5
