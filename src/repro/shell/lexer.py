"""POSIX shell lexer.

Implements the token recognition algorithm of POSIX XCU §2.3: blanks
separate tokens, operators are matched longest-first, and words are
accumulated with full awareness of quoting (``'``, ``"``, ``\\``) and
dollar/backquote expansions so that metacharacters inside them do not
terminate the word.  Word tokens carry their raw source text; structural
interpretation of quotes and expansions happens in :mod:`repro.shell.words`.

The source is stepped over by compiled patterns, never one character per
Python call: blanks and comments, an operator (one longest-first
alternation), an IO number and a run of plain word characters are one
match each, and a token's :class:`Position` is computed from its offset.
Each bracket construct has one scanner (:func:`scan_dquote`,
:func:`scan_backquote`, :func:`scan_dollar` for ``${``, ``$(`` and
``$((``), shared with the word parser, so both find the same end.  A
``$`` and a special parameter (``$$``, ``$?``, ``$1``, ...) are read as
one unit everywhere, as the word parser reads them.  A ``$(...)`` body
that holds a ``case`` is read again token by token
(:mod:`repro.shell.casebody`), as the ``)`` of a case pattern closes
no parenthesis.

Heredocs are collected by the lexer (they are a line-level phenomenon) and
attached to the ``<<``/``<<-`` operator token.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .tokens import EOF, IO_NUMBER, NEWLINE, OPERATOR, OPERATORS, WORD, Position, Token


class ShellSyntaxError(ValueError):
    """Raised on malformed shell input."""

    def __init__(self, message: str, pos: Position):
        super().__init__(f"{message} at {pos}")
        self.message = message
        self.pos = pos


def _position(source: str, offset: int) -> Position:
    """The line and column (1-based) of ``offset`` in ``source``."""
    line = source.count("\n", 0, offset) + 1
    return Position(line, offset - source.rfind("\n", 0, offset), offset)


def _unterminated(source: str, what: str) -> ShellSyntaxError:
    # every scanner runs out of input at the end of the source
    return ShellSyntaxError(f"unterminated {what}", _position(source, len(source)))


# -- bracket scanners ----------------------------------------------------------
#
# Each takes the offset just past a construct's opening and returns the
# offset just past its closing.  A run pattern steps over everything that
# cannot end or open a nested construct: plain characters, backslash
# escapes, single-quoted strings (and, in ``$(...)``, comments: a ``#``
# that starts a token, as in the command the body is parsed into, so not
# one a line continuation joins to the word before it).

#: the characters that name a special parameter after ``$``
SPECIAL_PARAMS = "@*#?-$!0123456789"
#: a ``$`` that opens no bracket construct: with the special parameter it
#: names, if any, so ``$$(`` is ``$$`` and then ``(``
_PLAIN_DOLLAR = rf"\$(?:[{re.escape(SPECIAL_PARAMS)}]|(?![{{(]))"

_DQUOTE_RUN = re.compile(rf'(?:[^"\\$`]+|\\.?|{_PLAIN_DOLLAR})*', re.S)
_BACKQUOTE_RUN = re.compile(r"(?:[^`\\]+|\\.?)*", re.S)
_BRACE_RUN = re.compile(r"""(?:[^\\'"{}]+|\\.?|'[^']*')*""", re.S)
_PAREN_RUN = re.compile(
    r"""(?:[^\\'"`#()]+|\\.?|'[^']*'|(?<![^ \t\n;&|()<>])(?<![^ \t\n;&|()<>]\\\n)#[^\n]*|#)*""",
    re.S,
)
_ARITH_RUN = re.compile(r"[^()]*")
#: ``case`` as a word of its own
_CASE = re.compile(r"(?<![^ \t\n;&|()<>])case(?![^ \t\n;&|()<>])")


def scan_dquote(source: str, i: int) -> int:
    """A double-quoted string; ``$`` and backquote expansions nest."""
    while True:
        i = _DQUOTE_RUN.match(source, i).end()
        char = source[i : i + 1]
        if char == '"':
            return i + 1
        if char == "$":
            i = scan_dollar(source, i + 1)
        elif char == "`":
            i = scan_backquote(source, i + 1)
        else:
            raise _unterminated(source, "double quote")


def scan_backquote(source: str, i: int) -> int:
    """A backquoted command substitution, up to its unescaped backquote."""
    i = _BACKQUOTE_RUN.match(source, i).end()
    if i == len(source):
        raise _unterminated(source, "backquote")
    return i + 1


def scan_dollar(source: str, i: int) -> int:
    """After a ``$``: past the ``{...}``, ``(...)`` or ``((...))`` it
    opens, or ``i`` itself when it opens none of them."""
    char = source[i : i + 1]
    if char == "{":
        return _scan_nested(source, i + 1, 1, "{}", _BRACE_RUN, "${")
    if char != "(":
        return i
    if source.startswith("(", i + 1):
        return _scan_nested(source, i + 2, 2, "()", _ARITH_RUN, "$((")
    end = _scan_nested(source, i + 1, 1, "()", _PAREN_RUN, "$(")
    # the ``)`` of a case pattern closes no parenthesis; a case whose
    # pattern could end the body early has its ``case`` before that end
    if _CASE.search(source, i + 1, end):
        from .casebody import scan_case_body

        return scan_case_body(source, i + 1)
    return end


def _scan_nested(source: str, i: int, depth: int, brackets: str, run, what: str) -> int:
    """``${...}`` (braces counted, quotes skipped), ``$(...)`` (parens
    counted; quotes, backquotes and comments skipped) or ``$((...))``
    (parens counted, nothing else)."""
    opening, closing = brackets
    while True:
        i = run.match(source, i).end()
        char = source[i : i + 1]
        if char == opening:
            depth += 1
        elif char == closing:
            depth -= 1
            if not depth:
                return i + 1
        elif char == '"':
            i = scan_dquote(source, i + 1)
            continue
        elif char == "`":
            i = scan_backquote(source, i + 1)
            continue
        elif char == "'":
            raise _unterminated(source, "single quote")
        else:
            raise _unterminated(source, what)
        i += 1


# -- tokens ---------------------------------------------------------------------

_SKIP = r"(?:[ \t]+|\\\n|#[^\n]*)*"  # blanks, line continuations, a comment
_WORD_RUN = rf"""(?:[^ \t\n|&;<>()\\'"$`]+|\\.?|'[^']*'|{_PLAIN_DOLLAR})"""
_BLANKS = re.compile(_SKIP)
_WORD = re.compile(_WORD_RUN + "*", re.S)
#: what a word goes on with after a plain run: a quote or an expansion
_WORD_GOES_ON = frozenset("\"$`'")
#: groups: 1 newline, 2 IO number (if all digits), 3 operator, 4 word start
_TOKEN = re.compile(
    rf"{_SKIP}(?:(\n)|(\w+)(?=[<>])|({'|'.join(map(re.escape, OPERATORS))})|({_WORD_RUN}+))?",
    re.S,
)


def _scan_word(source: str, i: int) -> int:
    """A word's characters from ``i``: past its plain runs, quotes and
    expansions, up to the metacharacter (or end) that ends it."""
    while True:
        i = _WORD.match(source, i).end()
        char = source[i : i + 1]
        if char == '"':
            i = scan_dquote(source, i + 1)
        elif char == "$":
            i = scan_dollar(source, i + 1)
        elif char == "`":
            i = scan_backquote(source, i + 1)
        elif char == "'":
            raise _unterminated(source, "single quote")
        else:
            return i


class Lexer:
    def __init__(self, source: str):
        self.source = source
        #: Heredoc operators on the current line awaiting their bodies,
        #: as (token, delimiter, strip_tabs) triples.
        self._pending_heredocs: List[Tuple[Token, str, bool]] = []

    def tokens(self) -> List[Token]:
        source = self.source
        result: List[Token] = []
        pos = 0
        # a token's line is counted from the previous token's: ``mark`` is
        # that token's offset and ``line_start`` the offset its line starts at
        line, line_start, mark = 1, 0, 0
        while True:
            match = _TOKEN.match(source, pos)
            group = match.lastindex
            pos = match.end()
            begin = match.start(group) if group else pos
            newlines = source.count("\n", mark, begin)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", mark, begin) + 1
            mark = begin
            start = Position(line, begin - line_start + 1, begin)
            if group == 4:
                if source[pos : pos + 1] in _WORD_GOES_ON:
                    pos = _scan_word(source, pos)
                text = source[begin:pos]
                result.append(Token(WORD, text, start, text))
            elif group == 3:
                token = Token(OPERATOR, match.group(3), start)
                if token.text in ("<<", "<<-"):
                    pos = self._register_heredoc(token, pos)
                result.append(token)
            elif group == 1:
                pos = self._collect_heredocs(pos)
                result.append(Token(NEWLINE, "\n", start))
            elif group == 2 and match.group(2).isdigit():
                result.append(Token(IO_NUMBER, match.group(2), start))
            elif begin == len(source):
                if self._pending_heredocs:
                    raise ShellSyntaxError("unterminated heredoc", start)
                result.append(Token(EOF, "", start))
                return result
            else:  # a word opening with a quote or an expansion, or a name before < or >
                pos = _scan_word(source, begin)
                text = source[begin:pos]
                result.append(Token(WORD, text, start, text))

    # -- heredocs --------------------------------------------------------------

    def _register_heredoc(self, token: Token, pos: int) -> int:
        # The delimiter word follows the operator; lex it here so the body
        # collection (at next newline) knows what to look for.
        source = self.source
        begin = _BLANKS.match(source, pos).end()
        pos = _scan_word(source, begin)
        if pos == begin:
            char = source[begin : begin + 1] or None
            raise ShellSyntaxError(f"unexpected character {char!r}", _position(source, begin))
        text = source[begin:pos]
        delimiter, quoted = _strip_quotes(text)
        token.heredoc_quoted = quoted
        self._pending_heredocs.append((token, delimiter, token.text == "<<-"))
        # Stash the delimiter word on the operator token; the parser uses it
        # as the redirect target.
        token.raw = text
        return pos

    def _collect_heredocs(self, pos: int) -> int:
        source = self.source
        for token, delimiter, strip_tabs in self._pending_heredocs:
            lines: List[str] = []
            while True:
                if pos >= len(source):
                    raise ShellSyntaxError(
                        f"heredoc delimiter {delimiter!r} not found", _position(source, pos)
                    )
                end = source.find("\n", pos)
                if end == -1:
                    end = len(source)
                line = source[pos:end]
                pos = min(end + 1, len(source))
                check = line.lstrip("\t") if strip_tabs else line
                if check == delimiter:
                    break
                lines.append(check)
            token.heredoc_body = "".join(line + "\n" for line in lines)
        self._pending_heredocs = []
        return pos


def _strip_quotes(text: str) -> Tuple[str, bool]:
    """Remove quoting from a heredoc delimiter; report whether any quoting
    was present (quoted delimiters suppress expansion of the body)."""
    result = []
    quoted = False
    idx = 0
    while idx < len(text):
        char = text[idx]
        if char == "\\" and idx + 1 < len(text):
            result.append(text[idx + 1])
            quoted = True
            idx += 2
        elif char == "'":
            end = text.index("'", idx + 1)
            result.append(text[idx + 1 : end])
            quoted = True
            idx = end + 1
        elif char == '"':
            end = text.index('"', idx + 1)
            result.append(text[idx + 1 : end])
            quoted = True
            idx = end + 1
        else:
            result.append(char)
            idx += 1
    return "".join(result), quoted


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source`` into a list ending with an EOF token."""
    return Lexer(source).tokens()
