"""Structural interpretation of word tokens.

Converts a raw word slice (as produced by the lexer) into a list of
:class:`~repro.shell.ast.Part` values: quoted/unquoted literals,
parameter expansions with their operators, command substitutions
(recursively parsed), arithmetic expansions, globs, and tildes.
"""

from __future__ import annotations

import re
from typing import Callable, List

from .ast import (
    ArithPart,
    CmdSubPart,
    Command,
    GlobPart,
    LiteralPart,
    ParamPart,
    Part,
    TildePart,
    Word,
)
from .lexer import SPECIAL_PARAMS, ShellSyntaxError, scan_backquote, scan_dollar
from .tokens import Position

ParseCommand = Callable[[str], Command]

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
    def __init__(self, raw: str, parse_command: ParseCommand):
        self.raw = raw
        self.pos = 0
        self.parse_command = parse_command
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

    def _scan(self, scanner: Callable[[str, int], int], start: int) -> int:
        """Run a :mod:`~repro.shell.lexer` bracket scanner over the raw
        text from ``start``: the offset past the construct's closing."""
        try:
            return scanner(self.raw, start)
        except ShellSyntaxError as exc:
            raise ValueError(f"{exc.message} in {self.raw!r}") from None

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
        raise ValueError(f"unterminated double quote in {raw!r}")

    # -- expansions ----------------------------------------------------------------

    def _parse_dollar(self, quoted: bool) -> None:
        raw = self.raw
        char = raw[self.pos : self.pos + 1]
        if char == "{":
            end = self._scan(scan_dollar, self.pos)
            body, self.pos = raw[self.pos + 1 : end - 1], end
            self._parse_braced_param(body, quoted)
        elif char == "(":
            end = self._scan(scan_dollar, self.pos)
            if raw.startswith("((", self.pos):
                self._push(ArithPart(raw[self.pos + 2 : end - 2], quoted=quoted))
            else:
                source = raw[self.pos + 1 : end - 1]
                self._push(CmdSubPart(self.parse_command(source), source=source, quoted=quoted))
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

    def _parse_braced_param(self, body: str, quoted: bool) -> None:
        if body.startswith("#") and len(body) > 1:
            self._push(ParamPart(body[1:], op="len", quoted=quoted))
            return
        first = body[:1]
        if first and first in SPECIAL_PARAMS and not first.isdigit():
            name = first
        elif first.isalpha() or first == "_" or first.isdigit():
            name = _NAME_CHARS.match(body).group()
        else:
            raise ValueError(f"bad parameter expansion ${{{body}}} in {self.raw!r}")
        rest = body[len(name) :]
        if not rest:
            self._push(ParamPart(name, quoted=quoted))
            return
        op = _PARAM_OP.match(rest)
        if op is None:
            raise ValueError(f"unsupported parameter operator in ${{{body}}}")
        arg = parse_word(rest[op.end() :], self.parse_command, Position())
        self._push(ParamPart(name, op=op.group(), arg=arg, quoted=quoted))

    def _parse_backquote(self, quoted: bool) -> None:
        end = self._scan(scan_backquote, self.pos)
        # inside backquotes, a backslash quotes only `, $ and itself
        source = _BACKQUOTE_ESCAPE.sub(r"\1", self.raw[self.pos : end - 1])
        self.pos = end
        self._push(CmdSubPart(self.parse_command(source), source=source, quoted=quoted))


def parse_word(raw: str, parse_command: ParseCommand, pos: Position) -> Word:
    """Parse raw word text into a structured :class:`Word`."""
    if _UNQUOTED_RUN.fullmatch(raw) and not raw.startswith("~"):
        return Word(parts=[LiteralPart(raw)], raw=raw, pos=pos)  # the common case
    return Word(parts=_WordParser(raw, parse_command).parse(), raw=raw, pos=pos)
