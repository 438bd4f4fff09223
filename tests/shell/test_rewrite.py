"""Printer multiline mode and the semantics-preserving rewrites.

``parse(rewrite(src))`` must be structurally equal to ``parse(src)``
for the structure-preserving rewrites (roundtrip, newlines), and must
reparse cleanly for all of them.
"""

import pytest

from repro.records import Record
from repro.shell.ast import BraceGroup, Sequence
from repro.shell.parser import parse
from repro.shell.printer import render
from repro.shell.rewrite import (
    REWRITES,
    _quotable,
    quote_literals,
    rewrite_brace_group,
    rewrite_newlines,
    rewrite_quotes,
)


def strip_pos(obj):
    if isinstance(obj, Record):
        return (type(obj).__name__,) + tuple(
            strip_pos(getattr(obj, name)) for name in obj._fields if name != "pos"
        )
    if isinstance(obj, list):
        return tuple(strip_pos(x) for x in obj)
    return obj


SOURCES = [
    "a; b; c\n",
    "a &\nb\nwait\n",
    "mkdir cache && cd cache\n",
    "if [ -f x ]; then cat x; fi\n",
    'for f in a b c; do echo "$f"; done\n',
    'case "$1" in a) echo one ;; *) echo other ;; esac\n',
    "x=hello\necho $x > out.txt\n",
    "f() { echo hi; }\nf\n",
    "( cd /tmp && ls ) | wc -l\n",
    "! grep -q x f || exit 1\n",
    "while [ -e lock ]; do sleep 1; done\n",
]


class TestMultilineRender:
    @pytest.mark.parametrize("src", SOURCES)
    def test_structure_preserved(self, src):
        base = parse(src)
        out = render(base, multiline=True)
        assert strip_pos(parse(out)) == strip_pos(base)

    def test_one_command_per_line(self):
        out = render(parse("a; b; c\n"), multiline=True)
        assert out == "a\nb\nc"

    def test_background_line_has_no_semicolon(self):
        out = render(parse("a &\nb\n"), multiline=True)
        assert out == "a &\nb"

    def test_non_sequence_unchanged(self):
        assert render(parse("a && b\n"), multiline=True) == "a && b"


class TestQuoteRewrite:
    def test_quotes_plain_literals(self):
        out = rewrite_quotes("mkdir cache\n")
        assert out == 'mkdir "cache"'

    def test_command_name_left_bare(self):
        assert rewrite_quotes("mkdir cache\n").startswith("mkdir ")

    def test_globs_never_quoted(self):
        # quoting a glob would suppress expansion — semantics change
        assert rewrite_quotes("rm -f *.txt\n") == 'rm "-f" *.txt'

    def test_expansions_never_quoted(self):
        assert "$x" in rewrite_quotes("echo $x\n")
        assert '"$x"' not in rewrite_quotes("echo $x\n")

    def test_tilde_never_quoted(self):
        assert rewrite_quotes("ls ~/src\n") == "ls ~/src"

    def test_already_quoted_untouched(self):
        assert rewrite_quotes("echo 'a b'\n") == "echo 'a b'"

    def test_assignment_value_quoted(self):
        assert rewrite_quotes("x=hello\n") == 'x="hello"'

    def test_reparses(self):
        for src in SOURCES:
            parse(rewrite_quotes(src))

    def test_quotable_predicate(self):
        assert _quotable("cache")
        assert _quotable("file.txt")
        assert _quotable("-v")
        assert not _quotable("")
        assert not _quotable("*.txt")
        assert not _quotable("$HOME")
        assert not _quotable("a b")
        assert not _quotable("~me")
        assert not _quotable("x=y")
        assert not _quotable('say"hi"')


class TestBraceGroupRewrite:
    def test_wraps_whole_program(self):
        out = rewrite_brace_group("a; b\n")
        node = parse(out)
        assert isinstance(node, BraceGroup)
        assert strip_pos(node.body) == strip_pos(parse("a; b\n"))

    def test_background_termination_inside_braces(self):
        # `{ a & }` — a trailing & must not be followed by `;`
        out = rewrite_brace_group("a &\n")
        parse(out)
        assert "&;" not in out

    @pytest.mark.parametrize("src", SOURCES)
    def test_reparses(self, src):
        parse(rewrite_brace_group(src))

    def test_empty_program_not_wrapped(self):
        # fuzz-surfaced: `{ ; }` is a syntax error, so a comment-only
        # script must come back unwrapped
        assert rewrite_brace_group("#!/bin/sh\n").strip() == ""


class TestRewriteRegistry:
    def test_all_rewrites_reparse_all_sources(self):
        for src in SOURCES:
            for name, rw in REWRITES.items():
                parse(rw(src))

    def test_structure_preserving_rewrites(self):
        for src in SOURCES:
            base = strip_pos(parse(src))
            assert strip_pos(parse(rewrite_newlines(src))) == base, src
