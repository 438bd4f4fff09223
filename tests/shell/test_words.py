"""Unit tests for structured word parsing."""

import pytest

from repro.shell import parse as parse_command
from repro.shell.ast import (
    ArithPart,
    Case,
    CmdSubPart,
    GlobPart,
    LiteralPart,
    ParamPart,
    SimpleCommand,
    TildePart,
)
from repro.shell.lexer import ShellSyntaxError
from repro.shell.parser import Parser


def word(raw):
    """``raw`` lexed as one word token and parsed as the parser does."""
    parser = Parser(raw)
    return parser.make_word(parser.take())


class TestLiterals:
    def test_plain(self):
        w = word("hello")
        assert [type(p) for p in w.parts] == [LiteralPart]
        assert w.parts[0].text == "hello"
        assert not w.parts[0].quoted
        assert w.literal_text() == "hello"

    def test_single_quoted(self):
        w = word("'a b'")
        assert w.parts[0].text == "a b"
        assert w.parts[0].quoted
        assert w.is_fully_quoted()

    def test_double_quoted(self):
        w = word('"a b"')
        assert w.parts[0].text == "a b"
        assert w.parts[0].quoted

    def test_mixed_quoting_splits_parts(self):
        w = word("a'b'c")
        assert [p.text for p in w.parts] == ["a", "b", "c"]
        assert [p.quoted for p in w.parts] == [False, True, False]

    def test_backslash_escape(self):
        w = word("a\\ b")
        texts = [(p.text, p.quoted) for p in w.parts]
        assert texts == [("a", False), (" ", True), ("b", False)]

    def test_empty_quoted_string(self):
        w = word("''")
        assert len(w.parts) == 1
        assert w.parts[0].text == ""
        assert w.parts[0].quoted

    def test_dollar_alone_is_literal(self):
        w = word("a$")
        assert w.literal_text() == "a$"


class TestParams:
    def test_simple_var(self):
        w = word("$FOO")
        assert isinstance(w.parts[0], ParamPart)
        assert w.parts[0].name == "FOO"
        assert w.parts[0].op is None
        assert not w.parts[0].quoted

    def test_braced(self):
        w = word("${FOO}")
        assert w.parts[0].name == "FOO"

    def test_positional(self):
        assert word("$0").parts[0].name == "0"
        assert word("$1").parts[0].name == "1"
        assert word("${10}").parts[0].name == "10"

    def test_special(self):
        for ch in "@*#?$!":
            assert word(f"${ch}").parts[0].name == ch

    def test_quoted_param(self):
        w = word('"$FOO"')
        assert isinstance(w.parts[0], ParamPart)
        assert w.parts[0].quoted

    def test_suffix_strip(self):
        # The Fig. 1 expansion: "${0%/*}"
        w = word('"${0%/*}"')
        part = w.parts[0]
        assert isinstance(part, ParamPart)
        assert part.name == "0"
        assert part.op == "%"
        assert part.arg.raw == "/*"
        assert part.quoted

    @pytest.mark.parametrize(
        "raw,op",
        [
            ("${X:-d}", ":-"),
            ("${X-d}", "-"),
            ("${X:=d}", ":="),
            ("${X=d}", "="),
            ("${X:?msg}", ":?"),
            ("${X?msg}", "?"),
            ("${X:+d}", ":+"),
            ("${X+d}", "+"),
            ("${X%suf}", "%"),
            ("${X%%suf}", "%%"),
            ("${X#pre}", "#"),
            ("${X##pre}", "##"),
        ],
    )
    def test_operators(self, raw, op):
        part = word(raw).parts[0]
        assert part.op == op
        assert part.name == "X"

    def test_length(self):
        part = word("${#X}").parts[0]
        assert part.op == "len"
        assert part.name == "X"

    def test_default_word_is_parsed(self):
        part = word("${X:-$Y}").parts[0]
        inner = part.arg.parts[0]
        assert isinstance(inner, ParamPart)
        assert inner.name == "Y"

    def test_var_followed_by_text(self):
        w = word("$FOO/bar")
        assert isinstance(w.parts[0], ParamPart)
        assert w.parts[1].text == "/bar"

    def test_adjacent_vars(self):
        # §3's semantic-variant example: rm -fr $STEAMROOT$c
        w = word("$STEAMROOT$c")
        assert [p.name for p in w.parts] == ["STEAMROOT", "c"]

    def test_literal_text_none_with_expansion(self):
        assert word("$X").literal_text() is None


class TestCommandSub:
    def test_simple(self):
        w = word("$(echo hi)")
        part = w.parts[0]
        assert isinstance(part, CmdSubPart)
        assert part.source == "echo hi"
        assert isinstance(part.command, SimpleCommand)
        assert part.command.name == "echo"

    def test_backquote(self):
        part = word("`echo hi`").parts[0]
        assert isinstance(part, CmdSubPart)
        assert part.command.name == "echo"

    def test_fig1_word(self):
        w = word('"$(cd "${0%/*}" && echo $PWD)"')
        part = w.parts[0]
        assert isinstance(part, CmdSubPart)
        assert part.quoted
        from repro.shell.ast import AndOr

        assert isinstance(part.command, AndOr)
        assert part.command.op == "&&"

    def test_nested(self):
        part = word("$(echo $(date))").parts[0]
        inner = part.command.words[1].parts[0]
        assert isinstance(inner, CmdSubPart)

    def test_comment_inside_command_sub(self):
        """``x=$(# c )<newline>echo hi)``: dash sets ``x=hi``, since the
        ``)`` in the comment does not close the substitution.  The word
        parser used to end it there and leave ``<newline>echo hi)`` as
        literal text."""
        [assignment] = parse_command("x=$(# c )\necho hi)").assignments
        [part] = assignment.value.parts
        assert isinstance(part, CmdSubPart)
        assert part.source == "# c )\necho hi"
        assert part.command.name == "echo"
        assert [w.literal_text() for w in part.command.words] == ["echo", "hi"]

    @pytest.mark.parametrize("inner", ["echo a#b", "echo a\\\n#b"])
    def test_hash_inside_a_word_of_a_command_sub_is_literal(self, inner):
        """``echo $(echo a#b)``, and the same with a line continuation
        before the ``#``: dash prints ``a#b`` (a ``#`` starts a comment
        only at the start of a token)."""
        [part] = parse_command(f"echo $({inner})").words[1].parts
        assert part.source == inner
        assert [w.literal_text() for w in part.command.words] == ["echo", "a#b"]


    def test_case_inside_command_sub(self):
        """``echo $(case x in x) echo y;; esac)``: dash prints ``y``; the
        case pattern's ``)`` used to close the substitution."""
        [part] = parse_command("echo $(case x in x) echo y;; esac)").words[1].parts
        assert part.source == "case x in x) echo y;; esac"
        assert isinstance(part.command, Case)


class TestSpecialParameters:
    def test_dollar_dollar_then_paren_is_a_syntax_error(self):
        """dash: ``echo $$(echo x y)`` is ``Syntax error: "(" unexpected``."""
        with pytest.raises(ShellSyntaxError, match="unexpected token '\\('"):
            parse_command("echo $$(echo x y)")

    @pytest.mark.parametrize("param", list("$?#!-@*0123456789"))
    def test_quoted_special_parameter_then_paren(self, param):
        """Inside double quotes ``"$$(echo x)"`` is ``$$`` and the text
        ``(echo x)``, for the lexer and the word parser alike."""
        [_, quoted] = parse_command(f'echo "${param}(echo x)"').words
        assert [type(part) for part in quoted.parts] == [ParamPart, LiteralPart]
        assert quoted.parts[0].name == param
        assert quoted.parts[1].text == "(echo x)"


class TestGlobsAndTildes:
    def test_unquoted_star_is_glob(self):
        w = word('"$STEAMROOT"/*')
        assert isinstance(w.parts[0], ParamPart)
        assert w.parts[1].text == "/"
        assert isinstance(w.parts[2], GlobPart)
        assert w.parts[2].char == "*"

    def test_quoted_star_is_literal(self):
        w = word("'*'")
        assert isinstance(w.parts[0], LiteralPart)

    def test_question_glob(self):
        assert isinstance(word("a?c").parts[1], GlobPart)

    def test_has_glob(self):
        assert word("*.txt").has_glob()
        assert not word("'*.txt'").has_glob()

    def test_tilde(self):
        w = word("~/mine")
        assert isinstance(w.parts[0], TildePart)
        assert w.parts[0].user == ""
        assert w.parts[1].text == "/mine"

    def test_tilde_user(self):
        w = word("~alice/x")
        assert w.parts[0].user == "alice"


class TestArith:
    def test_arith(self):
        part = word("$((1+2))").parts[0]
        assert isinstance(part, ArithPart)
        assert part.expr == "1+2"
