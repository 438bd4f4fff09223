"""The per-run language table: shared builds, same automata, same reports.

Inside a run, leaf constructions and boolean products are built once and
shared.  Sharing must be invisible: every operation yields the DFA a
fresh build would, the table never outlives its run or crosses threads,
and budget trips happen exactly where they would without it."""

import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.analysis.difftest.gen import generate
from repro.analysis.resilience import (
    AnalysisBudgetExceeded,
    ResourceBudget,
    use_budget,
)
from repro.rlang import Regex
from repro.rlang.table import active_table, run_table
from repro.symex import Engine
from repro.symex import engine as engine_mod

from tests.property.test_rlang_properties import regex_ast

OPS = {
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "-": lambda a, b: a - b,
}


def structure(regex):
    dfa = regex.dfa
    return (
        tuple(atom.intervals for atom in dfa.atoms),
        tuple(map(tuple, dfa.delta)),
        frozenset(dfa.accepting),
        dfa.start,
    )


@contextmanager
def no_table():
    yield None


class TestSameAutomata:
    @given(regex_ast(), regex_ast(), regex_ast(), st.sampled_from(sorted(OPS)))
    @settings(max_examples=150, deadline=None)
    def test_products_match_untabled(self, x, y, z, op):
        # two independent builds per operand: a hit must come from
        # structure, not object identity
        fresh = [Regex.from_ast(node) for node in (x, y, z, x, y)]
        apply = OPS[op]
        expected = [
            structure(apply(fresh[0], fresh[1])),
            structure(apply(apply(fresh[0], fresh[1]), fresh[2])),
        ]
        with run_table() as table:
            twins = [Regex.from_ast(node) for node in (x, y, z, x, y)]
            got = []
            for a, b, c in ((twins[0], twins[1], twins[2]), (twins[3], twins[4], twins[2])):
                got.append([structure(apply(a, b)), structure(apply(apply(a, b), c))])
            assert table.products
        assert got == [expected, expected]

    def test_leaves_are_shared_but_regex_objects_are_fresh(self):
        with run_table():
            first, second = Regex.compile("[a-z]+"), Regex.compile("[a-z]+")
            lit_a, lit_b = Regex.literal("a.b"), Regex.literal("a.b")
        assert first is not second and first.dfa is second.dfa
        assert lit_a is not lit_b and lit_a.dfa is lit_b.dfa
        assert lit_a.pattern == Regex.literal("a.b").pattern == "a\\.b"
        assert structure(first) == structure(Regex.compile("[a-z]+"))

    def test_reused_product_honours_a_tighter_budget(self):
        wide, digits = Regex.compile("[a-z]*x[a-z]{6}"), Regex.compile("[a-z0-9]*")
        with run_table() as table:
            built = wide & digits
            assert built.dfa.n_states > 4
            with use_budget(ResourceBudget(max_dfa_states=4)):
                with pytest.raises(AnalysisBudgetExceeded) as exc:
                    wide & digits
            assert exc.value.phase == "rlang.product"
            assert (wide & digits).dfa is built.dfa
            assert len(table.products) == 1

    def test_failed_build_stores_nothing(self):
        with run_table() as table:
            with use_budget(ResourceBudget(max_dfa_states=2)):
                with pytest.raises(AnalysisBudgetExceeded):
                    Regex.compile("[a-z]*x[a-z]{6}")
            assert table.leaves == {}


class TestScope:
    def test_no_table_outside_a_run(self):
        assert active_table() is None
        Regex.compile("a") & Regex.compile("b")
        assert active_table() is None

    def test_nested_scope_reuses_the_table(self):
        with run_table() as outer:
            with run_table() as inner:
                assert inner is outer
            assert active_table() is outer
        assert active_table() is None

    def test_engine_run_installs_and_drops_the_table(self, monkeypatch):
        seen = []
        real = Engine._run

        def spy(self, *args):
            seen.append(active_table())
            return real(self, *args)

        monkeypatch.setattr(Engine, "_run", spy)
        Engine().run_script('case "$1" in a*) echo a ;; *) echo b ;; esac\n')
        assert seen and seen[0] is not None
        assert active_table() is None

    def test_table_dropped_when_run_raises(self):
        engine = Engine(budget=ResourceBudget(max_states=3))
        with pytest.raises(AnalysisBudgetExceeded):
            engine.run_script(generate(5, safe=True))
        assert active_table() is None

    def test_threads_never_share_a_table(self):
        a_in, b_checked = threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with run_table() as table:
                seen["a"] = table
                a_in.set()
                b_checked.wait(5)
                seen["a_after"] = active_table()

        def thread_b():
            a_in.wait(5)
            seen["b_before"] = active_table()
            with run_table() as table:
                seen["b"] = table
            b_checked.set()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert seen["b_before"] is None
        assert seen["b"] is not seen["a"]
        assert seen["a_after"] is seen["a"]


@pytest.mark.parametrize("seed", [5, 11])
@pytest.mark.parametrize("cap", [4, 12, 40])
def test_tight_dfa_budget_degrades_the_same(monkeypatch, seed, cap):
    source = generate(seed, safe=True)

    def render():
        report = analyze(source, max_fork=16, budget=ResourceBudget(max_dfa_states=cap))
        return report.degraded, report.render()

    tabled = render()
    monkeypatch.setattr(engine_mod, "run_table", no_table)
    untabled = render()
    assert tabled == untabled
    if cap == 4:
        assert tabled[0]
