"""POSIX shell lexer.

Implements the token recognition algorithm of POSIX XCU §2.3: blanks
separate tokens, operators are matched longest-first, and words are
accumulated with full awareness of quoting (``'``, ``"``, ``\\``) and
dollar/backquote expansions so that metacharacters inside them do not
terminate the word.  Word tokens carry their raw source text; structural
interpretation of quotes and expansions happens in :mod:`repro.shell.words`.
The lexer hands out one token at a time (:meth:`Lexer.next_token`), as
the parser asks for it.

The source is stepped over by compiled patterns, never one character per
Python call: blanks and comments, an operator (one longest-first
alternation), an IO number and a run of plain word characters are one
match each, and a token's :class:`Position` is computed from its offset.
``"..."``, `` `...` ``, ``${...}`` and ``$((...))`` each have one
scanner (:func:`scan_dquote`, :func:`scan_backquote`, :func:`scan_dollar`),
shared with the word parser, so both find the same end.  A ``$(...)``
ends where the parse of its body ends (POSIX XCU §2.6.3): a scanner that
meets ``$(`` calls its ``command_sub`` with the body's offset and
nesting level, the parser parses the body from this source, with the
script's positions, up to the ``)`` that closes it and returns the offset
past that ``)``.  The scanners count nesting toward the parser's
:data:`MAX_NESTING_DEPTH`.  No scanner knows a reserved word.  A ``$`` and a special parameter (``$$``,
``$?``, ``$1``, ...) are read as one unit everywhere, as the word parser
reads them.

Heredocs are collected by the lexer (they are a line-level phenomenon) at
the end of their line, for the ``<<``/``<<-`` token or the redirect the
parser built from it before that (:meth:`Lexer.send_heredoc`).
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, List, Tuple

from .tokens import EOF, IO_NUMBER, NEWLINE, OPERATOR, OPERATORS, WORD, Position, Token

#: given the offset past a ``$(`` and its body's level, the offset past its ``)``
CommandSub = Callable[[int, int], int]

#: Nesting-depth ceiling: compound commands, function definitions, ``"``,
#: ``${`` and ``$((`` each open a level, a ``$(`` or backquoted body two,
#: so a level costs at most ~7 interpreter frames and any nest, as
#: ``((((...))))`` or ``"${x:-"${x:-...``, trips it well inside CPython's
#: recursion limit: a :class:`ParseDepthExceeded`, not a RecursionError.
MAX_NESTING_DEPTH = 60


class ShellSyntaxError(ValueError):
    """Raised on malformed shell input."""

    def __init__(self, message: str, pos: Position):
        super().__init__(f"{message} at {pos}")
        self.message = message
        self.pos = pos


class ParseDepthExceeded(ShellSyntaxError):
    """Input nested deeper than :data:`MAX_NESTING_DEPTH`."""


def too_deep(pos: Position) -> ParseDepthExceeded:
    return ParseDepthExceeded(f"command nesting exceeds {MAX_NESTING_DEPTH} levels", pos)


def _position(source: str, offset: int) -> Position:
    """The line and column (1-based) of ``offset`` in ``source``."""
    line = source.count("\n", 0, offset) + 1
    return Position(line, offset - source.rfind("\n", 0, offset), offset)


def _unterminated(source: str, what: str) -> ShellSyntaxError:
    # every scanner runs out of input at the end of the source
    return ShellSyntaxError(f"unterminated {what}", _position(source, len(source)))


# -- bracket scanners ----------------------------------------------------------
#
# Each takes the offset just past a construct's opening, at nesting level
# ``depth``, and returns the offset just past its closing.  A run pattern
# steps over what cannot end or open a nested construct: plain
# characters, backslash escapes and single-quoted strings.

#: the characters that name a special parameter after ``$``
SPECIAL_PARAMS = "@*#?-$!0123456789"
#: a ``$`` that opens no bracket construct: with the special parameter it
#: names, if any, so ``$$(`` is ``$$`` and then ``(``
_PLAIN_DOLLAR = rf"\$(?:[{re.escape(SPECIAL_PARAMS)}]|(?![{{(]))"

_DQUOTE_RUN = re.compile(rf'(?:[^"\\$`]+|\\.?|{_PLAIN_DOLLAR})*', re.S)
_BACKQUOTE_RUN = re.compile(r"(?:[^`\\]+|\\.?)*", re.S)
_BRACE_RUN = re.compile(rf"""(?:[^\\'"`${{}}]+|\\.?|'[^']*'|{_PLAIN_DOLLAR})*""", re.S)
_ARITH_RUN = re.compile(r"[^()]*")


def scan_dquote(source: str, i: int, command_sub: CommandSub, depth: int) -> int:
    """A double-quoted string; ``$`` and backquote expansions nest."""
    if depth > MAX_NESTING_DEPTH:
        raise too_deep(_position(source, i - 1))
    while True:
        i = _DQUOTE_RUN.match(source, i).end()
        char = source[i : i + 1]
        if char == '"':
            return i + 1
        if char == "$":
            i = scan_dollar(source, i + 1, command_sub, depth)
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


def scan_dollar(source: str, i: int, command_sub: CommandSub, depth: int) -> int:
    """After a ``$`` in a construct at level ``depth``: past the
    ``{...}``, ``(...)`` or ``((...))`` it opens, one level deeper, or
    ``i`` itself when it opens none of them."""
    char = source[i : i + 1]
    if char == "{":
        return _scan_nested(source, i + 1, 1, "{}", _BRACE_RUN, "${", command_sub, depth + 1)
    if char != "(":
        return i
    if source.startswith("(", i + 1):
        return _scan_nested(source, i + 2, 2, "()", _ARITH_RUN, "$((", command_sub, depth + 1)
    return command_sub(i + 1, depth + 2)


def _scan_nested(
    source: str, i: int, count: int, brackets: str, run, what: str, command_sub, depth: int
) -> int:
    """``${...}`` (braces counted; quotes, backquotes and expansions
    hide their ``}``) or ``$((...))`` (parentheses counted, nothing
    else)."""
    if depth > MAX_NESTING_DEPTH:
        raise too_deep(_position(source, i - len(what)))  # at its opening
    opening, closing = brackets
    while True:
        i = run.match(source, i).end()
        char = source[i : i + 1]
        if char == opening:
            count += 1
        elif char == closing:
            count -= 1
            if not count:
                return i + 1
        elif char == '"':
            i = scan_dquote(source, i + 1, command_sub, depth + 1)
            continue
        elif char == "$":
            i = scan_dollar(source, i + 1, command_sub, depth)
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


class Lexer:
    """The tokens of ``source`` from ``start``, one per :meth:`next_token`.

    The ``parser`` finds where a ``$(...)`` ends: its
    :meth:`~repro.shell.parser.Parser.substitution` parses the body at an
    offset and position, at a nesting level, and returns the offset past
    its ``)``; its ``depth`` is the nesting level of the word being lexed.
    With an ``origin`` (the position of ``start``) the lexer reads such a
    body: its parse stops at its ``)``, so the end of input there is an
    unterminated ``$(``.
    """

    def __init__(self, source: str, parser, start: int = 0, origin: Position = None):
        self.source = source
        self.parser = parser
        self.substitution = origin is not None
        #: Heredocs on the current line awaiting their bodies, as (receiver,
        #: delimiter, strip_tabs): the receiver, the ``<<`` token or its
        #: redirect, gets the body at the end of the line.
        self.pending_heredocs: List[Tuple[object, str, bool]] = []
        #: the line of the token being lexed and the offset of its column 1
        self._line = (origin.line, start - origin.col + 1) if origin else (1, start)
        #: the next token, on each call; the end of input's EOF token
        #: again once it is reached
        self.next_token: Callable[[], Token] = self._tokens(start).__next__

    def _command_sub(self, start: int, depth: int) -> int:
        """The scanners' ``command_sub``, for a body in the current token."""
        source, (line, line_start) = self.source, self._line
        newlines = source.count("\n", line_start, start)
        if newlines:
            line, line_start = line + newlines, source.rfind("\n", line_start, start) + 1
        return self.parser.substitution(start, Position(line, start - line_start + 1, start), depth)

    def _tokens(self, pos: int) -> Iterator[Token]:
        source, scan_word, match_token = self.source, self._scan_word, _TOKEN.match
        # a token's line is counted from the previous token's: ``mark`` is
        # that token's offset and ``line_start`` the offset its line starts at
        line, line_start = self._line
        mark = pos
        while True:
            match = match_token(source, pos)
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
                    self._line = line, line_start
                    pos = scan_word(pos)
                text = source[begin:pos]
                yield Token(WORD, text, start, text)
            elif group == 3:
                token = Token(OPERATOR, match.group(3), start)
                if token.text in ("<<", "<<-"):
                    self._line = line, line_start
                    pos = self._register_heredoc(token, pos)
                yield token
            elif group == 1:
                pos = self._collect_heredocs(pos)
                yield Token(NEWLINE, "\n", start)
            elif group == 2 and match.group(2).isdigit():
                yield Token(IO_NUMBER, match.group(2), start)
            elif begin == len(source):
                if self.substitution:
                    raise _unterminated(source, "$(")
                if self.pending_heredocs:
                    raise ShellSyntaxError("unterminated heredoc", start)
                yield Token(EOF, "", start)
            else:  # a word opening with a quote or an expansion, or a name before < or >
                self._line = line, line_start
                pos = scan_word(begin)
                text = source[begin:pos]
                yield Token(WORD, text, start, text)

    def _scan_word(self, i: int) -> int:
        """A word's characters from ``i``: past its plain runs, quotes and
        expansions, up to the metacharacter (or end) that ends it."""
        source, command_sub, depth = self.source, self._command_sub, self.parser.depth
        while True:
            i = _WORD.match(source, i).end()
            char = source[i : i + 1]
            if char == '"':
                i = scan_dquote(source, i + 1, command_sub, depth + 1)
            elif char == "$":
                i = scan_dollar(source, i + 1, command_sub, depth)
            elif char == "`":
                i = scan_backquote(source, i + 1)
            elif char == "'":
                raise _unterminated(source, "single quote")
            else:
                return i

    # -- heredocs --------------------------------------------------------------

    def _register_heredoc(self, token: Token, pos: int) -> int:
        # The delimiter word follows the operator; lex it here so the body
        # collection (at next newline) knows what to look for.
        source = self.source
        begin = _BLANKS.match(source, pos).end()
        pos = self._scan_word(begin)
        if pos == begin:
            char = source[begin : begin + 1] or None
            raise ShellSyntaxError(f"unexpected character {char!r}", _position(source, begin))
        text = source[begin:pos]
        delimiter, quoted = _strip_quotes(text)
        token.heredoc_quoted = quoted
        self.pending_heredocs.append((token, delimiter, token.text == "<<-"))
        # Stash the delimiter word on the operator token; the parser uses it
        # as the redirect target.
        token.raw = text
        return pos

    def send_heredoc(self, token: Token, redirect) -> None:
        """Have ``redirect``, built from ``<<`` ``token``, get its body
        now if it is read, else at the end of the line."""
        redirect.heredoc_body = token.heredoc_body
        self.pending_heredocs = [
            (redirect if receiver is token else receiver, delimiter, strip_tabs)
            for receiver, delimiter, strip_tabs in self.pending_heredocs
        ]

    def _collect_heredocs(self, pos: int) -> int:
        source = self.source
        for receiver, delimiter, strip_tabs in self.pending_heredocs:
            lines: List[str] = []
            while True:
                if pos >= len(source):
                    if self.substitution:
                        raise _unterminated(source, "$(")
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
            receiver.heredoc_body = "".join(line + "\n" for line in lines)
        self.pending_heredocs = []
        return pos


#: a heredoc delimiter's parts: an escaped character, a single- or
#: double-quoted string, or unquoted text; inside double quotes a
#: backslash quotes only ``$``, `` ` ``, ``"`` and itself
_DELIMITER_PART = re.compile(r"""\\(.)|'([^']*)'|"((?:[^"\\]|\\.)*)"|([^\\'"]+|.)""", re.S)
_DQ_ESCAPE = re.compile(r'\\([$`"\\])')


def _strip_quotes(text: str) -> Tuple[str, bool]:
    """Remove quoting from a heredoc delimiter; report whether any quoting
    was present (quoted delimiters suppress expansion of the body)."""
    parts = list(_DELIMITER_PART.finditer(text))
    quoted = any(part.lastindex < 4 for part in parts)
    unquoted = (p[p.lastindex] if p.lastindex != 3 else _DQ_ESCAPE.sub(r"\1", p[3]) for p in parts)
    return "".join(unquoted), quoted


def tokenize(source: str) -> List[Token]:
    """Tokenise ``source`` into a list ending with an EOF token."""
    from .parser import Parser  # a ``$(...)`` ends where the parse of its body ends

    parser = Parser(source)
    tokens = [parser.current]
    while tokens[-1].kind is not EOF:
        tokens.append(parser.lexer.next_token())
    return tokens
