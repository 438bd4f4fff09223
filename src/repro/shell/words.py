"""Structural interpretation of word tokens.

Converts a raw word slice (as produced by the lexer) into a list of
:class:`~repro.shell.ast.Part` values: quoted/unquoted literals,
parameter expansions with their operators, command substitutions,
arithmetic expansions, globs, and tildes.

A ``$(...)`` is not scanned again: the parser parsed its body when the
lexer met it, and the word parser takes that command and the offset of
its closing ``)`` from :attr:`~repro.shell.parser.Parser.subs`.  The
other brackets are found by the lexer's scanners, which look a ``$(``
inside them up in the same table.  A backquoted body is parsed here,
from its unescaped text.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Optional

from .ast import (
    ArithPart,
    CmdSubPart,
    GlobPart,
    LiteralPart,
    ParamPart,
    Part,
    TildePart,
    Word,
)
from .lexer import SPECIAL_PARAMS, ShellSyntaxError, scan_backquote, scan_dollar
from .tokens import Position

if TYPE_CHECKING:
    from .parser import Parser

#: Parameter-expansion operators, longest first.
_PARAM_OP = re.compile(r":[-=?+]|%%|##|[-=?+%#]")

#: a run of literal characters, unquoted and double-quoted: each is one
#: match, and the characters that end one start something else
_UNQUOTED_RUN = re.compile(r"""[^\\'"$`*?]+""")
_UNQUOTED_SPECIAL = frozenset("\\'\"$`*?")
_DQUOTED_RUN = re.compile(r'[^"\\$`]+')
_DQUOTED_SPECIAL = frozenset('"\\$`')
#: the rest of a name after its first character, the user name of a
#: leading tilde, and the backslash escapes a backquoted body drops
_NAME_CHARS = re.compile(r"\w*")
_TILDE_USER = re.compile(r"[\w.-]*")
_BACKQUOTE_ESCAPE = re.compile(r"\\([`$\\])")


class _WordParser:
    def __init__(self, raw: str, parser: "Parser", base: int, where: Position):
        self.raw = raw
        self.pos = 0
        self.parser = parser
        #: the offset of ``raw`` in the parser's source, and the position
        #: a syntax error in it names (its word's)
        self.base = base
        self.where = where
        self.parts: List[Part] = []
        self._literal: List[str] = []
        self._literal_quoted = False

    # -- literal accumulation ------------------------------------------------

    def _emit(self, text: str, quoted: bool) -> None:
        if not text:
            return
        if self._literal and self._literal_quoted != quoted:
            self._flush()
        self._literal.append(text)
        self._literal_quoted = quoted

    def _flush(self) -> None:
        if self._literal:
            self.parts.append(
                LiteralPart("".join(self._literal), self._literal_quoted)
            )
            self._literal = []
            self._literal_quoted = False

    def _push(self, part: Part) -> None:
        self._flush()
        self.parts.append(part)

    def _sub_end(self, start: int, depth: int) -> int:
        """The scanners' ``command_sub``: where the parser ended that body."""
        return self.parser.subs[self.base + start][0] - self.base

    # -- main -------------------------------------------------------------------

    def parse(self) -> List[Part]:
        raw = self.raw
        if raw.startswith("~"):
            end = _TILDE_USER.match(raw, 1).end()
            self._push(TildePart(raw[1:end]))
            self.pos = end
        while self.pos < len(raw):
            char = raw[self.pos]
            if char not in _UNQUOTED_SPECIAL:
                end = _UNQUOTED_RUN.match(raw, self.pos).end()
                self._emit(raw[self.pos : end], quoted=False)
                self.pos = end
                continue
            self.pos += 1
            if char == "\\":
                if raw.startswith("\n", self.pos):
                    self.pos += 1  # line continuation disappears entirely
                elif self.pos < len(raw):
                    self._emit(raw[self.pos], quoted=True)
                    self.pos += 1
            elif char == "'":
                end = raw.index("'", self.pos)
                self._emit(raw[self.pos : end], quoted=True)
                # Preserve "quoted empty string" — '' yields an explicit part.
                if end == self.pos:
                    self._push(LiteralPart("", quoted=True))
                self.pos = end + 1
            elif char == '"':
                self._parse_double_quoted()
            elif char == "$":
                self._parse_dollar(quoted=False)
            elif char == "`":
                self._parse_backquote(quoted=False)
            else:
                self._push(GlobPart(char))
        self._flush()
        return self.parts

    def _parse_double_quoted(self) -> None:
        raw = self.raw
        if raw.startswith('"', self.pos):
            self.pos += 1
            self._push(LiteralPart("", quoted=True))
            return
        while self.pos < len(raw):
            char = raw[self.pos]
            if char not in _DQUOTED_SPECIAL:
                end = _DQUOTED_RUN.match(raw, self.pos).end()
                self._emit(raw[self.pos : end], quoted=True)
                self.pos = end
                continue
            self.pos += 1
            if char == '"':
                return
            if char == "\\":
                following = raw[self.pos : self.pos + 1]
                if following and following in '"$`\\':
                    self._emit(following, quoted=True)
                    self.pos += 1
                elif following == "\n":
                    self.pos += 1  # line continuation
                else:
                    self._emit(char, quoted=True)
            elif char == "$":
                self._parse_dollar(quoted=True)
            else:
                self._parse_backquote(quoted=True)
        raise ShellSyntaxError("unterminated double quote", self.where)

    # -- expansions ----------------------------------------------------------------

    def _parse_dollar(self, quoted: bool) -> None:
        raw = self.raw
        char = raw[self.pos : self.pos + 1]
        if char == "{":
            start, self.pos = self.pos + 1, scan_dollar(raw, self.pos, self._sub_end, 0)
            self._parse_braced_param(start, quoted)
        elif char == "(":
            start = self.pos + 1
            if raw.startswith("(", start):
                end = scan_dollar(raw, self.pos, self._sub_end, 0)
                self._push(ArithPart(raw[start + 1 : end - 2], quoted=quoted))
            else:
                end, command = self.parser.subs[self.base + start]
                end -= self.base
                self._push(CmdSubPart(command, source=raw[start : end - 1], quoted=quoted))
            self.pos = end
        elif char and char in SPECIAL_PARAMS:
            self._push(ParamPart(char, quoted=quoted))
            self.pos += 1
        elif char.isalpha() or char == "_":
            end = _NAME_CHARS.match(raw, self.pos + 1).end()
            self._push(ParamPart(raw[self.pos : end], quoted=quoted))
            self.pos = end
        else:
            # A lone "$" is literal.
            self._emit("$", quoted)

    def _parse_braced_param(self, start: int, quoted: bool) -> None:
        """``${...}``, whose body runs from ``start`` to the ``}`` before
        the current offset."""
        body = self.raw[start : self.pos - 1]
        if body.startswith("#") and len(body) > 1:
            self._push(ParamPart(body[1:], op="len", quoted=quoted))
            return
        first = body[:1]
        if first and first in SPECIAL_PARAMS and not first.isdigit():
            name = first
        elif first.isalpha() or first == "_" or first.isdigit():
            name = _NAME_CHARS.match(body).group()
        else:
            raise ShellSyntaxError(f"bad parameter expansion ${{{body}}}", self.where)
        rest = body[len(name) :]
        if not rest:
            self._push(ParamPart(name, quoted=quoted))
            return
        op = _PARAM_OP.match(rest)
        if op is None:
            raise ShellSyntaxError(f"unsupported parameter operator in ${{{body}}}", self.where)
        arg_start = start + len(name) + op.end()
        operand = self.raw[arg_start : self.pos - 1]
        arg = parse_word(operand, Position(), self.parser, self.base + arg_start, self.where)
        self._push(ParamPart(name, op=op.group(), arg=arg, quoted=quoted))

    def _parse_backquote(self, quoted: bool) -> None:
        end = scan_backquote(self.raw, self.pos)
        # inside backquotes, a backslash quotes only `, $ and itself
        source = _BACKQUOTE_ESCAPE.sub(r"\1", self.raw[self.pos : end - 1])
        self.pos = end
        self._push(CmdSubPart(self.parser.parse_backquoted(source), source=source, quoted=quoted))


def parse_word(
    raw: str, pos: Position, parser: "Parser", base: int, where: Optional[Position] = None
) -> Word:
    """Parse raw word text, which starts at offset ``base`` of the
    ``parser``'s source, into a structured :class:`Word` at ``pos``; a
    syntax error names ``where`` (by default ``pos``)."""
    if _UNQUOTED_RUN.fullmatch(raw) and not raw.startswith("~"):
        return Word(parts=[LiteralPart(raw)], raw=raw, pos=pos)  # the common case
    return Word(parts=_WordParser(raw, parser, base, where or pos).parse(), raw=raw, pos=pos)
