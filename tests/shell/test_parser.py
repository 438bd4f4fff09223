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


def _heredoc_bodies(command):
    """The bodies of the heredocs of ``command``'s commands, in order."""
    return [
        redirect.heredoc_body
        for node in walk(command)
        for redirect in getattr(node, "redirects", ())
        if redirect.op in ("<<", "<<-")
    ]


class TestHeredocBodies:
    """A heredoc's body is read at the end of its line, which the parser
    may take after it built the redirect; the redirect gets it then."""

    SCRIPTS = [
        ("cat <<EOF > out\nbody\nEOF\n", ["body\n"]),
        ("cat <<A <<B\na\nA\nb\nB\n", ["a\n", "b\n"]),
        ("cat <<EOF | sh\nx\nEOF\n", ["x\n"]),
        ("cat <<E; echo x\nb\nE\n", ["b\n"]),
        ("cat <<-E 2>&1\n\tb\n\tE\n", ["b\n"]),
    ]

    @pytest.mark.parametrize("source,bodies", SCRIPTS)
    def test_at_the_top_level(self, source, bodies):
        assert _heredoc_bodies(parse(source)) == bodies

    @pytest.mark.parametrize("source,bodies", SCRIPTS)
    def test_inside_a_substitution(self, source, bodies):
        [part] = parse(f"echo $({source})").words[1].parts
        assert part.source == source
        assert _heredoc_bodies(part.command) == bodies


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


class TestCommandSubstitution:
    """A ``$(...)`` ends where the parse of its body ends (POSIX XCU
    §2.6.3), and each body is parsed once."""

    def test_a_body_is_parsed_once(self, monkeypatch):
        from repro.shell import parser as parser_mod

        calls = []
        real = parser_mod.parse_substitution

        def counting(source, start, *args):
            calls.append(start)
            return real(source, start, *args)

        monkeypatch.setattr(parser_mod, "parse_substitution", counting)
        cmd = parse("echo $(" * 30 + "echo x" + ")" * 30)
        assert len(calls) == 30
        for _ in range(30):
            [part] = cmd.words[1].parts
            cmd = part.command
        assert [w.raw for w in cmd.words] == ["echo", "x"]

    def test_a_heredoc_body_closes_no_parenthesis(self):
        """dash prints ``)`` for this script: the heredoc's ``)`` line is
        body text, not the end of the substitution."""
        cmd = parse("echo $(cat <<EOF\n)\nEOF\n)\n")
        [part] = cmd.words[1].parts
        assert part.source == "cat <<EOF\n)\nEOF\n"
        [redirect] = part.command.redirects
        assert redirect.heredoc_body == ")\n"

    def test_a_brace_in_a_substitution_in_a_parameter_operand(self):
        """dash prints ``}`` for ``echo "${x:-$(echo })}"``."""
        cmd = parse('echo "${x:-$(echo })}"')
        [param] = cmd.words[1].parts
        assert param.op == ":-"
        [sub] = param.arg.parts
        assert sub.source == "echo }"
        assert [w.raw for w in sub.command.words] == ["echo", "}"]

    def test_nothing_past_the_closing_parenthesis_is_lexed(self):
        """The body's parse stops at its ``)``: the unterminated quote
        after it is the outer lexer's error, found after the body."""
        from repro.shell.parser import parse_substitution
        from repro.shell.tokens import Position

        source = "echo $(echo a) 'oops"
        command, end = parse_substitution(source, 7, Position(1, 8, 7))
        assert source[:end] == "echo $(echo a)"
        assert [w.raw for w in command.words] == ["echo", "a"]

    def test_commands_in_a_substitution_carry_script_positions(self):
        source = "x=1\necho $(cd /tmp &&\n  echo `pwd`)\n"
        [part] = parse(source).commands[1].words[1].parts
        assert (part.command.left.pos.line, part.command.left.pos.col) == (2, 8)
        inner = part.command.right
        assert (inner.pos.line, inner.pos.col) == (3, 3)
        assert inner.pos.offset == source.index("echo `")
        # a backquoted body is parsed from its unescaped text, and its
        # positions count from that text
        [backquoted] = inner.words[1].parts
        assert (backquoted.command.pos.line, backquoted.command.pos.col) == (1, 1)


class TestNestingCeiling:
    """Every quote, bracket, substitution and compound command opens a
    level of ``MAX_NESTING_DEPTH``, so a nest of any of them ends in
    ``ParseDepthExceeded`` at the construct past the ceiling, before the
    interpreter's recursion limit, however deep the caller's stack is."""

    @pytest.mark.parametrize("opening,closing", [
        ("echo $(", ")"), ("echo >$(", ")"), ('echo "$(', ')"'),
        ('echo "${x:-$(', ')}"'), ('echo "${x:-"', '"}"'), ("echo ${x:-${x:-", "}}"),
        ("( ", " )"), ("if a; then ", "; fi"),
    ])
    def test_a_thousand_deep_nest_stops_at_the_ceiling(self, opening, closing):
        import sys

        from repro.shell import ParseDepthExceeded

        source = opening * 1000 + "echo hi" + closing * 1000

        def beneath(frames):
            return parse(source) if frames == 0 else beneath(frames - 1)

        with pytest.raises(ParseDepthExceeded) as raised:
            # a caller that already used 40 % of the interpreter's stack
            beneath(sys.getrecursionlimit() * 2 // 5)
        pos = raised.value.pos  # the construct's, or its body's
        assert (pos.line, pos.col) == (1, pos.offset + 1)
        assert len(opening) < pos.offset < len(source) // 2
