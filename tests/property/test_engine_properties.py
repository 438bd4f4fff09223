"""Property tests at the engine level.

- random arithmetic expressions evaluate identically to /bin/sh;
- metamorphic invariances: semantics-preserving rewrites (no-op
  prefixes, brace wrapping, comment insertion) must not change the
  analyzer's findings;
- state merging: after random forks and writes, two states merge iff
  the sorted-tuple key of every binding and constraint is equal, and a
  join prunes exactly as a prune on that key does.
"""

import shutil
import subprocess

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis import analyze
from repro.diag import Diagnostic
from repro.rlang import Regex
from repro.shell import parse
from repro.symex import Engine, SymState
from repro.symex.arith import ArithError, evaluate
from repro.symstr import SymString
from tests.symex.merge_keys import (
    assert_fingerprints_fresh,
    legacy_key,
    legacy_prune,
)

SH = shutil.which("sh")


# -- random arithmetic vs /bin/sh ---------------------------------------------

numbers = st.integers(min_value=0, max_value=99).map(str)
binops = st.sampled_from(["+", "-", "*", "/", "%"])


@st.composite
def arith_exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(numbers)
    left = draw(arith_exprs(depth=depth + 1))
    right = draw(arith_exprs(depth=depth + 1))
    op = draw(binops)
    return f"({left}{op}{right})"


@pytest.mark.skipif(SH is None, reason="no /bin/sh")
class TestArithDifferential:
    @given(arith_exprs())
    @settings(max_examples=80, deadline=None)
    def test_matches_sh(self, expr):
        try:
            ours = evaluate(expr, lambda n: None)
        except ArithError:
            assume(False)  # division by zero etc.: sh would error too
            return
        completed = subprocess.run(
            [SH, "-c", f"echo $(({expr}))"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        assume(completed.returncode == 0)
        assert str(ours) == completed.stdout.strip()


# -- metamorphic invariances -------------------------------------------------------

SCRIPTS = [
    'STEAMROOT="$(cd "${0%/*}" && echo $PWD)"\nrm -fr "$STEAMROOT"/*\n',
    'rm -fr "$1"\ncat "$1/config"\n',
    "mkdir /srv/app\nmkdir /srv/app\n",
    "lsb_release -a | grep '^desc' | cut -f 2\n",
    "echo hello | sort\n",
    'if [ "$(realpath "$1/")" != "/" ]; then rm -rf "$1"/w; fi\n',
]


def finding_codes(source, n_args=1):
    report = analyze(source, n_args=n_args)
    return {
        (d.code, d.always)
        for d in report.diagnostics
        if d.severity.value in ("error", "warning")
    }


class TestMetamorphic:
    @pytest.mark.parametrize("source", SCRIPTS)
    def test_true_prefix_preserves_findings(self, source):
        assert finding_codes(source) == finding_codes("true\n" + source)

    @pytest.mark.parametrize("source", SCRIPTS)
    def test_comment_insertion_preserves_findings(self, source):
        commented = "# a comment\n" + source.replace("\n", "\n# inline\n", 1)
        assert finding_codes(source) == finding_codes(commented)

    @pytest.mark.parametrize("source", SCRIPTS)
    def test_trailing_noop_preserves_findings(self, source):
        assert finding_codes(source) == finding_codes(source + ": noop\n")

    @pytest.mark.parametrize("source", SCRIPTS)
    def test_roundtrip_print_preserves_findings(self, source):
        from repro.shell import parse
        from repro.shell.printer import render

        rendered = render(parse(source)) + "\n"
        assert finding_codes(source) == finding_codes(rendered)


# -- merge keys: fingerprints vs the sorted-tuple key --------------------------

#: ``PWD`` also moves ``cwd_str``; twin values and bodies are equal but
#: distinct objects (values merge by equality, bodies by identity)
NAMES = ("a", "b", "PWD")
VALUES = (SymString.lit("1"), SymString.lit("1"), SymString.lit("2"), SymString.empty())
BODIES = (parse("true"), parse("true"), parse("echo x"))
LANGS = (Regex.compile("[a-c]*"), Regex.literal("a"), Regex.literal(""))
DIAGS = tuple(Diagnostic(code=code, message="m") for code in "xyz")
OPS = ("fork", "fork", "set", "set", "setvar", "unset", "fresh", "refine",
       "exclude", "define", "warn", "status", "capture", "emit")


def _apply(op, states, i, j):
    target = states[i % len(states)]
    vids = sorted(target.store._constraints)
    if op == "fork":
        states.append(target.fork())
    elif op == "set":
        target.set_var(NAMES[j % len(NAMES)], VALUES[j % len(VALUES)])
    elif op == "setvar" and vids:
        target.set_var(NAMES[j % len(NAMES)], SymString.var(vids[j % len(vids)]))
    elif op == "unset":
        target.unset_var(NAMES[j % len(NAMES)])
    elif op == "fresh":
        target.store.fresh(LANGS[j % len(LANGS)] if j % 2 else None)
    elif op == "refine" and vids:
        target.store.refine(vids[j % len(vids)], LANGS[j % len(LANGS)])
    elif op == "exclude" and vids:
        target.store.exclude(vids[j % len(vids)], LANGS[j % len(LANGS)])
    elif op == "define":
        target.define_function("fg"[j % 2], BODIES[j % len(BODIES)])
    elif op == "warn":
        target.warn(DIAGS[j % len(DIAGS)])
    elif op == "status":
        target.status = j % 2
    elif op == "capture":
        target.capturing = not target.capturing
    elif op == "emit":
        target.emit_text(VALUES[j % len(VALUES)])


class TestMergeKeys:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_prune_matches_the_sorted_tuple_key(self, data):
        ops = data.draw(
            st.lists(
                st.tuples(st.sampled_from(OPS), st.integers(0, 15), st.integers(0, 11)),
                max_size=40,
            )
        )
        states = [SymState()]
        for op, i, j in ops:
            _apply(op, states, i, j)
        states = data.draw(st.permutations(states))
        for state in states:
            assert_fingerprints_fresh(state)
        diagnostics = [list(state.diagnostics) for state in states]
        # pairwise: two states merge iff their sorted-tuple keys are equal
        for a in states:
            for b in states:
                if a is not b:
                    merges = len(Engine().merge_states([a, b])) == 1
                    assert merges == (legacy_key(a) == legacy_key(b))
        # the whole join: same states, same order, same diagnostics
        for state, held in zip(states, diagnostics):
            state.diagnostics = held
        want, want_diagnostics, want_merges = legacy_prune(states)
        engine = Engine(max_fork=len(states))
        got = engine.merge_states(list(states))
        assert got == want
        assert [state.diagnostics for state in got] == want_diagnostics
        assert engine.paths_merged == want_merges
