"""Unit tests for the shell lexer."""

import pytest

from repro.shell.lexer import ShellSyntaxError, tokenize
from repro.shell.tokens import TokenKind


def kinds(source):
    return [t.kind for t in tokenize(source)]


def texts(source):
    return [t.text for t in tokenize(source) if t.kind is not TokenKind.EOF]


class TestBasics:
    def test_empty(self):
        toks = tokenize("")
        assert len(toks) == 1 and toks[0].kind is TokenKind.EOF

    def test_simple_words(self):
        assert texts("echo hello world") == ["echo", "hello", "world"]

    def test_blanks_collapse(self):
        assert texts("a   \t  b") == ["a", "b"]

    def test_newline_token(self):
        toks = tokenize("a\nb")
        assert [t.kind for t in toks] == [
            TokenKind.WORD,
            TokenKind.NEWLINE,
            TokenKind.WORD,
            TokenKind.EOF,
        ]

    def test_comment_skipped(self):
        assert texts("echo hi # a comment") == ["echo", "hi"]

    def test_comment_whole_line(self):
        assert texts("# only a comment\necho x") == ["\n", "echo", "x"]

    def test_hash_inside_word_is_literal(self):
        assert texts("echo a#b") == ["echo", "a#b"]

    def test_line_continuation_between_words(self):
        assert texts("echo a \\\n b") == ["echo", "a", "b"]

    def test_line_continuation_in_word(self):
        # The raw token keeps the continuation; word parsing removes it.
        from repro.shell import parse

        cmd = parse("echo a\\\nb")
        assert cmd.words[1].literal_text() == "ab"

    def test_positions(self):
        toks = tokenize("echo hi\nls")
        assert (toks[0].pos.line, toks[0].pos.col) == (1, 1)
        assert (toks[1].pos.line, toks[1].pos.col) == (1, 6)
        assert (toks[3].pos.line, toks[3].pos.col) == (2, 1)


class TestOperators:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("a|b", ["a", "|", "b"]),
            ("a||b", ["a", "||", "b"]),
            ("a&&b", ["a", "&&", "b"]),
            ("a&b", ["a", "&", "b"]),
            ("a;b", ["a", ";", "b"]),
            ("a;;b", ["a", ";;", "b"]),
            ("a>b", ["a", ">", "b"]),
            ("a>>b", ["a", ">>", "b"]),
            ("a<b", ["a", "<", "b"]),
            ("a>&2", ["a", ">&", "2"]),
            ("a<&0", ["a", "<&", "0"]),
            ("a>|b", ["a", ">|", "b"]),
            ("a<>b", ["a", "<>", "b"]),
            ("(a)", ["(", "a", ")"]),
        ],
    )
    def test_operator_split(self, source, expected):
        assert texts(source) == expected

    def test_io_number(self):
        toks = tokenize("cmd 2>err")
        assert toks[1].kind is TokenKind.IO_NUMBER
        assert toks[1].text == "2"
        assert toks[2].text == ">"

    def test_digits_not_followed_by_redirect_are_word(self):
        toks = tokenize("echo 2 x")
        assert toks[1].kind is TokenKind.WORD


class TestQuoting:
    def test_single_quotes_keep_metachars(self):
        assert texts("echo 'a|b;c'") == ["echo", "'a|b;c'"]

    def test_double_quotes_keep_metachars(self):
        assert texts('echo "a && b"') == ["echo", '"a && b"']

    def test_backslash_escapes_space(self):
        assert texts("echo a\\ b") == ["echo", "a\\ b"]

    def test_unterminated_single_quote(self):
        with pytest.raises(ShellSyntaxError):
            tokenize("echo 'oops")

    def test_unterminated_double_quote(self):
        with pytest.raises(ShellSyntaxError):
            tokenize('echo "oops')

    def test_dollar_paren_spans_word(self):
        assert texts('X="$(cd "${0%/*}" && echo $PWD)"') == [
            'X="$(cd "${0%/*}" && echo $PWD)"'
        ]

    def test_nested_command_sub(self):
        src = "echo $(echo $(echo hi))"
        assert texts(src) == ["echo", "$(echo $(echo hi))"]

    def test_command_sub_with_comment(self):
        assert texts("echo $(ls # c\n)") == ["echo", "$(ls # c\n)"]

    def test_braced_param_with_close_brace_in_quotes(self):
        assert texts("echo ${X:-'}'}") == ["echo", "${X:-'}'}"]

    def test_backquote(self):
        assert texts("echo `ls -l`") == ["echo", "`ls -l`"]

    def test_arith(self):
        assert texts("echo $((1+2))x") == ["echo", "$((1+2))x"]

    def test_unterminated_command_sub(self):
        with pytest.raises(ShellSyntaxError):
            tokenize("echo $(ls")

    @pytest.mark.parametrize("source", [
        "echo $(case x in x) echo y;; esac)",
        "echo $(case x in (x) echo y;; esac)",
        "echo $(case x in x|z) (echo y) ;; *) echo n; esac; echo z)",
        "echo $(case x in x) echo y\nesac\n)",
        "echo $(case x in esac)",
        "echo $(case a in a) echo $(case b in b) echo c;; esac);; esac)",
        'echo "$(case x in x) echo y;; esac)"',
    ])
    def test_a_case_pattern_does_not_close_a_command_sub(self, source):
        """dash prints ``y`` for ``echo $(case x in x) echo y;; esac)``:
        the ``)`` that ends a case pattern closes no parenthesis."""
        assert texts(source) == ["echo", source[len("echo "):]]

    def test_case_and_esac_as_arguments_count_no_case(self):
        assert texts("echo $(echo case in x) $(echo esac)") == [
            "echo", "$(echo case in x)", "$(echo esac)"
        ]

    def test_unterminated_case_in_command_sub(self):
        with pytest.raises(ShellSyntaxError, match=r"unterminated \$\("):
            tokenize("echo $(case x in x) echo y;; esac")

    @pytest.mark.parametrize("param", list("$?#!-@*0123456789"))
    def test_dollar_and_a_special_parameter_are_one_unit(self, param):
        """``echo $$(echo x y)``: dash reads ``$$`` and then ``(``, a
        syntax error, not ``$`` and a command substitution."""
        assert texts(f"echo ${param}(echo x y)") == [
            "echo", f"${param}", "(", "echo", "x", "y", ")"
        ]
        assert texts(f'echo "${param}(echo x y)"') == ["echo", f'"${param}(echo x y)"']


class TestHeredoc:
    def test_basic_heredoc(self):
        toks = tokenize("cat <<EOF\nhello\nworld\nEOF\n")
        ops = [t for t in toks if t.is_op("<<")]
        assert len(ops) == 1
        assert ops[0].heredoc_body == "hello\nworld\n"
        assert not ops[0].heredoc_quoted

    def test_quoted_delimiter(self):
        toks = tokenize("cat <<'EOF'\n$HOME\nEOF\n")
        op = next(t for t in toks if t.is_op("<<"))
        assert op.heredoc_quoted
        assert op.heredoc_body == "$HOME\n"

    def test_dash_strips_tabs(self):
        toks = tokenize("cat <<-EOF\n\thello\n\tEOF\n")
        op = next(t for t in toks if t.is_op("<<-"))
        assert op.heredoc_body == "hello\n"

    def test_missing_delimiter(self):
        with pytest.raises(ShellSyntaxError):
            tokenize("cat <<EOF\nhello\n")

    def test_two_heredocs_one_line(self):
        toks = tokenize("cat <<A <<B\na\nA\nb\nB\n")
        ops = [t for t in toks if t.is_op("<<")]
        assert ops[0].heredoc_body == "a\n"
        assert ops[1].heredoc_body == "b\n"
