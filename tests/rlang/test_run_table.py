"""The per-run language table and the per-process constant tier: shared
builds, same automata, same reports.

Inside a run, leaves, boolean products, concatenations, stars and
quotients are built once and shared; the analyzer's own constant
languages are built once per process.  Sharing must be invisible: every
operation yields the DFA a fresh build would, a run's own table never
outlives its run or crosses threads (a table its caller gives outlives
the scope, and no table crosses a fork), and budget trips happen
exactly where they would without it, whatever ran earlier in the
process."""

import multiprocessing
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import analyze
from repro.analysis.difftest.gen import generate
from repro.budget import (
    AnalysisBudgetExceeded,
    ResourceBudget,
    use_budget,
)
from repro.obs import TraceRecorder, use_recorder
from repro.rlang import Regex
from repro.rlang import table as table_mod
from repro.rlang.table import RunTable, active_table, run_table
from repro.symex import SCRIPT_PATH_RE, Engine
from repro.symex import engine as engine_mod

from tests.property.test_rlang_properties import regex_ast

OPS = {
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "-": lambda a, b: a - b,
}

#: the constructions that determinise an NFA glued from their operands
GLUED = {
    "+": lambda a, b: a + b,
    "*": lambda a, b: a.star(),
    "/": lambda a, b: a.strip_suffix(b),
    "\\": lambda a, b: a.strip_prefix(b),
}

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples" / "scripts"


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

    @given(regex_ast(), regex_ast(), st.sampled_from(sorted(GLUED)))
    @settings(max_examples=150, deadline=None)
    def test_glued_constructions_match_untabled(self, x, y, op):
        apply = GLUED[op]
        a, b = Regex.from_ast(x), Regex.from_ast(y)
        once = apply(a, b)
        expected = [structure(once), structure(apply(once, b))]
        with run_table() as table:
            got = []
            for _ in range(2):
                twin_a, twin_b = Regex.from_ast(x), Regex.from_ast(y)
                built = apply(twin_a, twin_b)
                got.append([structure(built), structure(apply(built, twin_b))])
            assert table.products
            assert apply(twin_a, twin_b).dfa is built.dfa
        assert got == [expected, expected]

    def test_repeated_concat_constructs_once(self):
        recorder = TraceRecorder()
        with use_recorder(recorder), run_table() as table:
            first = Regex.compile("[a-z]+") + Regex.compile("/[0-9]*")
            built = recorder.counter("rlang.determinise_calls")
            again = Regex.compile("[a-z]+") + Regex.compile("/[0-9]*")
            assert recorder.counter("rlang.determinise_calls") == built
            assert list(table.products) == [("+", 0, 1)]
        assert again is not first and again.dfa is first.dfa
        assert again.pattern == first.pattern == "([a-z]+)(/[0-9]*)"

    def test_reused_concat_rechecks_in_the_determinise_phase(self):
        word, tail = Regex.compile("[a-z]*x"), Regex.compile("[a-z]{6}")
        with run_table():
            built = word + tail
            stripped = built.strip_suffix(tail)
            assert stripped.dfa.n_states == built.dfa.n_states > 4
            with use_budget(ResourceBudget(max_dfa_states=4)):
                with pytest.raises(AnalysisBudgetExceeded) as exc:
                    word + tail
                # a right quotient keeps its operand's states and checks no
                # cap when built, so a reused one checks none either
                assert built.strip_suffix(tail).dfa is stripped.dfa
            assert exc.value.phase == "rlang.determinise"

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


class TestConstants:
    """Languages written in the analyzer's source, built once per process."""

    def test_one_dfa_per_process_fresh_regex_per_call(self):
        with run_table():
            inside = Regex.constant(SCRIPT_PATH_RE)
        outside = Regex.constant(SCRIPT_PATH_RE)
        assert inside is not outside and inside.dfa is outside.dfa
        assert inside.pattern == SCRIPT_PATH_RE
        assert structure(inside) == structure(Regex.compile(SCRIPT_PATH_RE))
        assert Regex.any_string().dfa is Regex.any_string().dfa

    def test_reuse_honours_a_tighter_budget(self):
        path = Regex.constant(SCRIPT_PATH_RE)
        with use_budget(ResourceBudget(max_dfa_states=path.dfa.n_states - 1)):
            with pytest.raises(AnalysisBudgetExceeded) as exc:
                Regex.constant(SCRIPT_PATH_RE)
        assert exc.value.phase == "rlang.determinise"

    def test_failed_build_stores_nothing(self):
        pattern = "[a-z]*y[a-z]{7}"
        with use_budget(ResourceBudget(max_dfa_states=2)):
            with pytest.raises(AnalysisBudgetExceeded):
                Regex.constant(pattern)
        assert pattern not in table_mod._constants
        assert Regex.constant(pattern).matches("ayaaaaaaa")


#: renders a script under DFA-state caps 8..14, after one default
#: analysis or in a fresh process
_CAPPED_RENDERS = """
import sys
from repro.analysis import analyze
from repro.budget import ResourceBudget
source, order = sys.argv[1], sys.argv[2]
if order == "after-default":
    analyze(source)
for cap in range(8, 15):
    print(analyze(source, budget=ResourceBudget(max_dfa_states=cap)).render())
"""


def test_capped_report_does_not_depend_on_process_history():
    """A constant built by an earlier analysis is re-checked against the
    cap when reused, so a capped report reads the same whether or not
    the process analyzed anything before."""

    def renders(order):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run(
            [sys.executable, "-c", _CAPPED_RENDERS, 'd=$1; rm -rf "$d/"\n', order],
            env=env, check=True, capture_output=True, text=True,
        ).stdout

    fresh = renders("fresh")
    assert "during the rlang.determinise phase" in fresh
    assert renders("after-default") == fresh


def test_concurrent_runs_share_constants_and_render_as_serial_runs():
    """Threads analyze different scripts at once, more threads than the
    CPUs of a small machine and with a short switch interval; all use the
    process's constant DFAs, which each run's table tags with its own
    keys.  Every render equals the serial one."""
    sources = [
        (EXAMPLES / name).read_text(encoding="utf-8")
        for name in ("steam_updater.sh", "guarded_cleanup.sh", "install_tree.sh")
    ]
    serial = [analyze(source).render() for source in sources]
    assert Regex.any_string().dfa is Regex.any_string().dfa
    start = threading.Barrier(len(sources))
    got = {}

    def work(index):
        start.wait(5)
        got[index] = [analyze(sources[index]).render() for _ in range(4)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sources))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {i: [render] * 4 for i, render in enumerate(serial)}


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
        real = Engine.finish

        def spy(self, *args):
            seen.append(active_table())
            return real(self, *args)

        monkeypatch.setattr(Engine, "finish", spy)
        Engine().run_script('case "$1" in a*) echo a ;; *) echo b ;; esac\n')
        assert seen and seen[0] is not None
        assert active_table() is None

    def test_table_dropped_when_run_raises(self):
        with use_budget(ResourceBudget(max_states=3)):
            with pytest.raises(AnalysisBudgetExceeded):
                Engine().run_script(generate(5, safe=True))
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


def _held_states(table):
    """The DFA states ``table`` keeps alive: its entries, and the
    structures it keyed (one delta row per state)."""
    entries = [*table.leaves.values(), *table.products.values()]
    keyed = sum(len(rows) for _, rows, _, _ in table.keys)
    return sum(dfa.n_states for dfa in entries) + keyed


class TestGivenTable:
    """A caller that owns a table (the analysis daemon) installs it for
    one scope and keeps it afterwards."""

    def test_given_table_outlives_its_scope(self):
        table = RunTable()
        with run_table(table) as installed:
            assert installed is table and active_table() is table
            Regex.compile("[a-z]+x") & Regex.compile("[a-y]*x")
        assert active_table() is None
        assert table.leaves and table.products
        assert table.states == _held_states(table)
        with run_table(table):
            complement = ~Regex.compile("[a-z]+x")
            complement & Regex.compile("[a-y]*x")
        # the complement is keyed as an operand but stored as no entry
        assert all(dfa is not complement.dfa
                   for dfa in [*table.leaves.values(), *table.products.values()])
        assert table.states == _held_states(table)
        with run_table(table):
            before = dict(table.products)
            Regex.compile("[a-z]+x") & Regex.compile("[a-y]*x")
            assert table.products == before

    def test_a_nested_scope_keeps_the_installed_table(self):
        with run_table() as outer:
            with run_table(RunTable()) as inner:
                assert inner is outer
        assert active_table() is None


def _send_active_table(conn):
    conn.send(active_table() is None)
    conn.close()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_a_forked_child_starts_without_a_table():
    """A pool worker forked while a table is installed (a daemon's batch
    fans out from inside its table's scope) must not reuse a copy of it
    for every later run."""
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    with run_table():
        child = context.Process(target=_send_active_table, args=(send,))
        child.start()
        assert receive.poll(30)
        assert receive.recv() is True
        child.join(30)
    assert child.exitcode == 0
