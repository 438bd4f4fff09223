"""Token definitions for the POSIX shell lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import Optional

from ..records import Record


class TokenKind(Enum):
    WORD = auto()
    OPERATOR = auto()
    IO_NUMBER = auto()
    NEWLINE = auto()
    EOF = auto()


# the kinds by plain name: reading a member through its Enum class is a
# descriptor call, and the lexer and parser read a kind per token
WORD, OPERATOR, IO_NUMBER, NEWLINE, EOF = TokenKind

#: Multi-character operators, longest first (POSIX token recognition rule 2/3).
OPERATORS = [
    "<<-",
    "<<",
    ">>",
    "<&",
    ">&",
    "<>",
    ">|",
    "&&",
    "||",
    ";;",
    "|",
    "&",
    ";",
    "<",
    ">",
    "(",
    ")",
]

REDIRECT_OPERATORS = {"<", ">", ">>", "<<", "<<-", "<&", ">&", "<>", ">|"}

#: Reserved words, recognised only where a command word is expected.
RESERVED_WORDS = {
    "if",
    "then",
    "else",
    "elif",
    "fi",
    "do",
    "done",
    "case",
    "esac",
    "while",
    "until",
    "for",
    "in",
    "{",
    "}",
    "!",
}


class Position(Record):
    """Line/column position (1-based) within the source script."""

    __slots__ = ("line", "col", "offset")

    def __init__(self, line: int = 1, col: int = 1, offset: int = 0):
        self.line = line
        self.col = col
        self.offset = offset

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Token(Record):
    # ``raw``: for WORD tokens, the raw source slice including
    # quotes/expansions (``text`` equals ``raw`` for words; kept separate
    # for clarity).  ``heredoc_body``: for ``<<`` heredoc redirections,
    # the collected body (filled by the lexer at the end of the line,
    # unless a redirect built from the token takes it; see
    # ``Lexer.send_heredoc``).  ``heredoc_quoted``: the
    # heredoc delimiter was quoted (suppresses expansion).
    __slots__ = ("kind", "text", "pos", "raw", "heredoc_body", "heredoc_quoted")

    def __init__(
        self,
        kind: TokenKind,
        text: str,
        pos: Optional[Position] = None,
        raw: Optional[str] = None,
        heredoc_body: Optional[str] = None,
        heredoc_quoted: bool = False,
    ):
        self.kind = kind
        self.text = text
        self.pos = Position() if pos is None else pos
        self.raw = raw
        self.heredoc_body = heredoc_body
        self.heredoc_quoted = heredoc_quoted

    def is_op(self, *texts: str) -> bool:
        return self.text in texts and self.kind is OPERATOR

    def is_word(self, *texts: str) -> bool:
        return self.text in texts and self.kind is WORD

    def __repr__(self) -> str:
        return f"Token({self.kind.name}, {self.text!r}@{self.pos})"
