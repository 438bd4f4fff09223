"""Unit tests for the shell parser."""

import pytest

from repro.shell import (
    AndOr,
    Background,
    BraceGroup,
    Case,
    For,
    FunctionDef,
    If,
    Pipeline,
    Sequence,
    ShellSyntaxError,
    SimpleCommand,
    Subshell,
    While,
    parse,
    walk,
)


class TestSimpleCommands:
    def test_words(self):
        cmd = parse("echo hello world")
        assert isinstance(cmd, SimpleCommand)
        assert cmd.name == "echo"
        assert [w.literal_text() for w in cmd.words] == ["echo", "hello", "world"]

    def test_assignment_only(self):
        cmd = parse("FOO=bar")
        assert isinstance(cmd, SimpleCommand)
        assert not cmd.words
        assert cmd.assignments[0].name == "FOO"
        assert cmd.assignments[0].value.literal_text() == "bar"

    def test_assignment_prefix(self):
        cmd = parse("FOO=bar BAZ=qux cmd arg")
        assert [a.name for a in cmd.assignments] == ["FOO", "BAZ"]
        assert cmd.name == "cmd"

    def test_assignment_after_command_is_word(self):
        cmd = parse("echo FOO=bar")
        assert not cmd.assignments
        assert cmd.words[1].literal_text() == "FOO=bar"

    def test_empty_assignment_value(self):
        cmd = parse("FOO=")
        assert cmd.assignments[0].value.literal_text() == ""

    def test_redirects(self):
        cmd = parse("cmd >out.txt 2>err.txt <in.txt")
        assert [r.op for r in cmd.redirects] == [">", ">", "<"]
        assert cmd.redirects[1].fd == 2
        assert cmd.redirects[0].target.literal_text() == "out.txt"

    def test_append_redirect(self):
        cmd = parse("cmd >>log")
        assert cmd.redirects[0].op == ">>"

    def test_heredoc_redirect(self):
        cmd = parse("cat <<EOF\nbody\nEOF\n")
        assert cmd.redirects[0].op == "<<"
        assert cmd.redirects[0].heredoc_body == "body\n"


class TestPipelinesAndLists:
    def test_pipeline(self):
        cmd = parse("a | b | c")
        assert isinstance(cmd, Pipeline)
        assert [c.name for c in cmd.commands] == ["a", "b", "c"]

    def test_negated_pipeline(self):
        cmd = parse("! grep x f")
        assert isinstance(cmd, Pipeline)
        assert cmd.negated

    def test_andor(self):
        cmd = parse("a && b || c")
        assert isinstance(cmd, AndOr)
        assert cmd.op == "||"
        assert isinstance(cmd.left, AndOr)
        assert cmd.left.op == "&&"

    def test_andor_newline_continuation(self):
        cmd = parse("a &&\nb")
        assert isinstance(cmd, AndOr)

    def test_sequence_semicolon(self):
        cmd = parse("a; b; c")
        assert isinstance(cmd, Sequence)
        assert len(cmd.commands) == 3

    def test_sequence_newlines(self):
        cmd = parse("a\nb\n\nc\n")
        assert isinstance(cmd, Sequence)
        assert len(cmd.commands) == 3

    def test_background(self):
        cmd = parse("sleep 5 &")
        assert isinstance(cmd, Background)
        assert cmd.command.name == "sleep"

    def test_pipeline_newline_continuation(self):
        cmd = parse("a |\n  b")
        assert isinstance(cmd, Pipeline)


class TestCompound:
    def test_subshell(self):
        cmd = parse("(cd /tmp && ls)")
        assert isinstance(cmd, Subshell)
        assert isinstance(cmd.body, AndOr)

    def test_brace_group(self):
        cmd = parse("{ a; b; }")
        assert isinstance(cmd, BraceGroup)
        assert len(cmd.body.commands) == 2

    def test_if(self):
        cmd = parse("if true; then echo y; fi")
        assert isinstance(cmd, If)
        assert cmd.cond.name == "true"
        assert cmd.else_ is None

    def test_if_else(self):
        cmd = parse("if t; then a; else b; fi")
        assert cmd.else_.name == "b"

    def test_if_elif(self):
        cmd = parse("if t; then a; elif u; then b; else c; fi")
        assert len(cmd.elifs) == 1
        assert cmd.elifs[0].cond.name == "u"

    def test_while(self):
        cmd = parse("while read l; do echo $l; done")
        assert isinstance(cmd, While)
        assert not cmd.until

    def test_until(self):
        cmd = parse("until test -f x; do sleep 1; done")
        assert cmd.until

    def test_for_in(self):
        cmd = parse("for f in a b c; do echo $f; done")
        assert isinstance(cmd, For)
        assert cmd.var == "f"
        assert [w.literal_text() for w in cmd.words] == ["a", "b", "c"]

    def test_for_implicit(self):
        cmd = parse("for arg; do echo $arg; done")
        assert cmd.words is None

    def test_case(self):
        cmd = parse('case $x in\n a) echo 1 ;;\n b|c) echo 2 ;;\n *) echo 3 ;;\nesac')
        assert isinstance(cmd, Case)
        assert len(cmd.items) == 3
        assert [w.raw for w in cmd.items[1].patterns] == ["b", "c"]

    def test_case_empty_body(self):
        cmd = parse("case $x in a) ;; esac")
        assert cmd.items[0].body is None

    def test_case_open_paren_pattern(self):
        cmd = parse("case $x in (a) echo 1 ;; esac")
        assert cmd.items[0].patterns[0].raw == "a"

    def test_function(self):
        cmd = parse("greet() { echo hi; }")
        assert isinstance(cmd, FunctionDef)
        assert cmd.name == "greet"
        assert isinstance(cmd.body, BraceGroup)

    def test_compound_redirect(self):
        cmd = parse("if t; then a; fi >log 2>&1")
        assert [r.op for r in cmd.redirects] == [">", ">&"]

    def test_nested_if_in_while(self):
        cmd = parse("while t; do if u; then a; fi; done")
        assert isinstance(cmd.body, If)

    def test_backquoted_case_inside_command_sub(self):
        """``echo $(echo `case x in x) echo y;; esac`)``: dash prints
        ``y``.  The ``)`` of the case pattern sits inside the backquotes,
        so it does not close ``$(``; the word parser used to close it
        there and raise on the unterminated backquote."""
        cmd = parse("echo $(echo `case x in x) echo y;; esac`)")
        [outer] = cmd.words[1].parts
        assert outer.source == "echo `case x in x) echo y;; esac`"
        [inner] = outer.command.words[1].parts
        assert isinstance(inner.command, Case)


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "if true; then fi",
            "while t; do done",
            "case x in esac)",
            "(a",
            "{ a;",
            "a &&",
            "| b",
            "a | | b",
            "for do done",
        ],
    )
    def test_syntax_errors(self, source):
        with pytest.raises(ShellSyntaxError):
            parse(source)


class TestPaperFigures:
    FIG1 = """#!/bin/sh
STEAMROOT="$(cd "${0%/*}" && echo $PWD)"
# ... more lines ...
rm -fr "$STEAMROOT"/*
"""

    FIG2 = """#!/bin/sh
STEAMROOT="$(cd "${0%/*}" && echo $PWD)"

if [ "$(realpath "$STEAMROOT/")" != "/" ]; then
  rm -fr "$STEAMROOT"/*
else
  echo "Bad script path: $0"; exit 1
fi
"""

    FIG5 = """#!/bin/sh
STEAMROOT="$(cd "${0%/*}" && echo $PWD)"/
case $(lsb_release -a | grep '^desc' | cut -f 2) in
  Debian) SUFFIX=".config/steam" ;;
  *Linux) SUFFIX=".steam" ;;
esac
rm -fr $STEAMROOT$SUFFIX
"""

    def test_fig1(self):
        ast = parse(self.FIG1)
        names = [n.name for n in walk(ast) if isinstance(n, SimpleCommand)]
        assert "rm" in names and "cd" in names and "echo" in names

    def test_fig1_structure(self):
        ast = parse(self.FIG1)
        assign = ast.commands[0].assignments[0]
        assert assign.name == "STEAMROOT"
        sub = assign.value.parts[0]
        assert isinstance(sub.command, AndOr)

    def test_fig2(self):
        ast = parse(self.FIG2)
        guards = [n for n in walk(ast) if isinstance(n, If)]
        assert len(guards) == 1
        test_cmd = guards[0].cond
        assert test_cmd.name == "["

    def test_fig5(self):
        ast = parse(self.FIG5)
        cases = [n for n in walk(ast) if isinstance(n, Case)]
        assert len(cases) == 1
        pipes = [n for n in walk(ast) if isinstance(n, Pipeline)]
        assert len(pipes) == 1
        assert [c.name for c in pipes[0].commands] == ["lsb_release", "grep", "cut"]

    def test_variant_snippet(self):
        ast = parse('c="/*"; rm -fr $STEAMROOT$c')
        assert isinstance(ast, Sequence)
        rm = ast.commands[1]
        assert rm.name == "rm"
        assert [p.name for p in rm.words[2].parts] == ["STEAMROOT", "c"]
