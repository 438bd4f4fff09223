"""Property tests for the shell front end: parser round trips, token
positions, and path normalisation vs the standard library."""

import posixpath
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.fs import normalise_concrete
from repro.shell import TokenKind, parse, tokenize
from repro.shell.ast import structure
from repro.shell.printer import render

# -- path normalisation ------------------------------------------------------

segments = st.sampled_from(["a", "bb", ".", "..", "x9", ".hidden"])
paths = st.builds(
    lambda absolute, parts, trailing: (
        ("/" if absolute else "") + "/".join(parts) + ("/" if trailing and parts else "")
    ),
    st.booleans(),
    st.lists(segments, min_size=0, max_size=6),
    st.booleans(),
)


class TestNormalisation:
    @given(paths)
    @settings(max_examples=400, deadline=None)
    def test_matches_posixpath_normpath(self, path):
        # posixpath preserves a leading double slash (POSIX allows an
        # implementation-defined meaning); we collapse it — skip that case
        assume(not path.startswith("//"))
        expected = posixpath.normpath(path) if path else "."
        assert normalise_concrete(path) == expected

    @given(paths)
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, path):
        once = normalise_concrete(path)
        assert normalise_concrete(once) == once


# -- parser round trips ---------------------------------------------------------

words = st.sampled_from(
    ["foo", "bar", "'a b'", '"x y"', "$VAR", '"$VAR"', "${X:-d}", "a.txt",
     "*.log", "$(echo hi)", "-f", "/tmp/x"]
)

simple_commands = st.lists(words, min_size=1, max_size=4).map(" ".join)


def _combine(sources, template):
    return template.format(*sources)


scripts = st.recursive(
    simple_commands,
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda t: f"{t[0]} && {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} || {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]} | {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"{t[0]}; {t[1]}"),
        st.tuples(inner, inner).map(lambda t: f"if {t[0]}; then {t[1]}; fi"),
        st.tuples(inner, inner).map(lambda t: f"while {t[0]}; do {t[1]}; done"),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"{{ {s}; }}"),
        inner.map(lambda s: f"for v in a b; do {s}; done"),
        inner.map(lambda s: f"case $X in p) {s} ;; *) {s} ;; esac"),
    ),
    max_leaves=6,
)


class TestRoundTrip:
    @given(scripts)
    @settings(max_examples=300, deadline=None)
    def test_parse_render_parse(self, source):
        ast = parse(source)
        rendered = render(ast)
        reparsed = parse(rendered)
        assert structure(reparsed) == structure(ast), rendered

    @given(scripts)
    @settings(max_examples=150, deadline=None)
    def test_render_is_stable(self, source):
        once = render(parse(source))
        twice = render(parse(once))
        assert once == twice


# -- token positions --------------------------------------------------------------

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples" / "scripts").glob("*.sh"))


def assert_positions(source):
    """Every token sits where its position says: a word, operator or IO
    number starts with its text at its offset, and the line and column
    are those of that offset."""
    for token in tokenize(source):
        offset = token.pos.offset
        if token.kind in (TokenKind.WORD, TokenKind.OPERATOR, TokenKind.IO_NUMBER):
            assert source.startswith(token.text, offset), token
        assert token.pos.line == source.count("\n", 0, offset) + 1, token
        assert token.pos.col == offset - source.rfind("\n", 0, offset), token


class TestPositions:
    @given(st.lists(scripts, min_size=1, max_size=3).map("\n".join))
    @settings(max_examples=200, deadline=None)
    def test_scripts(self, source):
        assert_positions(source)

    @pytest.mark.parametrize("path", EXAMPLES, ids=[path.stem for path in EXAMPLES])
    def test_examples(self, path):
        assert_positions(path.read_text(encoding="utf-8"))
