"""Stream types: regular languages describing line shapes (paper §3).

A :class:`StreamType` describes the lines flowing through a Unix stream:
every line belongs to the ``line`` language.  The degenerate case — an
*empty* line language — means the stream can carry no lines at all,
which is exactly the Fig. 5 bug signal (``grep '^desc'`` composed with
``lsb_release`` output produces the empty language).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..rlang import Regex


class StreamType:
    """The set of possible streams, described per line."""

    __slots__ = ("line", "name")

    def __init__(self, line: Regex, name: Optional[str] = None):
        self.line = line
        self.name = name

    # -- constructors --------------------------------------------------------

    @classmethod
    def of(cls, pattern: str, name: Optional[str] = None) -> "StreamType":
        return cls(Regex.compile(pattern), name)

    @classmethod
    def any(cls) -> "StreamType":
        return cls(Regex.constant(".*"), "any")

    @classmethod
    def dead(cls) -> "StreamType":
        """A stream that cannot carry any line."""
        return cls(Regex.constant("a") & Regex.constant("b"), "dead")

    # -- queries ----------------------------------------------------------------

    def is_dead(self) -> bool:
        """True when no line can flow (the stream is necessarily empty)."""
        return self.line.is_empty()

    def admits(self, line_text: str) -> bool:
        return self.line.matches(line_text)

    def admits_stream(self, lines: Iterable[str]) -> bool:
        return all(self.line.matches(line) for line in lines)

    # -- algebra ------------------------------------------------------------------

    def intersect(self, other: "StreamType") -> "StreamType":
        return StreamType(self.line & other.line)

    def union(self, other: "StreamType") -> "StreamType":
        return StreamType(self.line | other.line)

    def __le__(self, other: "StreamType") -> bool:
        """Subtyping = line-language containment."""
        return self.line <= other.line

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StreamType):
            return NotImplemented
        return self.line == other.line

    def __hash__(self) -> int:
        return hash(self.line)

    def describe(self) -> str:
        if self.name:
            return self.name
        if self.line.pattern:
            return self.line.pattern
        example = self.line.example()
        if example is None:
            return "∅"
        return f"lang({example!r}...)"

    def __repr__(self) -> str:
        return f"StreamType({self.describe()})"
