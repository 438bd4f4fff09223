"""Regex abstract syntax and a parser for the POSIX-flavoured subset.

Regular types (paper §3) are written in the concrete syntax developers
already know from ``grep``/``sed``: literals, ``.``, classes ``[a-z]`` and
``[^/]``, escapes, ``*``/``+``/``?``/``{m,n}`` repetition, alternation
``|``, and grouping ``(...)``.  Types denote *whole-string* languages, so
anchors ``^``/``$`` at the edges are accepted and ignored; an unanchored
pattern ``p`` used as a *matcher* corresponds to ``.*p.*`` — the
higher-level type layer decides which reading it wants.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..records import FrozenRecord, set_field
from .charclass import CharSet


class RegexSyntaxError(ValueError):
    """Raised for malformed regular expressions."""

    def __init__(self, message: str, pattern: str, pos: int):
        super().__init__(f"{message} (at position {pos} in {pattern!r})")
        self.pattern = pattern
        self.pos = pos


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


class Node(FrozenRecord):
    """Base class for regex AST nodes."""

    __slots__ = ()


class Empty(Node):
    """The empty language (matches nothing)."""

    __slots__ = ()


class Epsilon(Node):
    """The language containing only the empty string."""

    __slots__ = ()


class Lit(Node):
    """A single character drawn from a character set."""

    __slots__ = ("charset",)

    def __init__(self, charset: CharSet):
        set_field(self, "charset", charset)


class Concat(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Alt(Node):
    __slots__ = ("left", "right")

    def __init__(self, left: Node, right: Node):
        set_field(self, "left", left)
        set_field(self, "right", right)


class Star(Node):
    __slots__ = ("inner",)

    def __init__(self, inner: Node):
        set_field(self, "inner", inner)


class Repeat(Node):
    """Bounded repetition ``inner{lo,hi}``; ``hi=None`` means unbounded."""

    __slots__ = ("inner", "lo", "hi")

    def __init__(self, inner: Node, lo: int, hi: Optional[int]):
        set_field(self, "inner", inner)
        set_field(self, "lo", lo)
        set_field(self, "hi", hi)


def concat_all(*nodes: Node) -> Node:
    result: Node = Epsilon()
    for node in nodes:
        if isinstance(node, Empty):
            return Empty()
        if isinstance(node, Epsilon):
            continue
        result = node if isinstance(result, Epsilon) else Concat(result, node)
    return result


def alt_all(*nodes: Node) -> Node:
    result: Node = Empty()
    for node in nodes:
        if isinstance(node, Empty):
            continue
        result = node if isinstance(result, Empty) else Alt(result, node)
    return result


def literal(text: str) -> Node:
    """AST matching exactly the string ``text``."""
    return concat_all(*(Lit(CharSet.of(c)) for c in text))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_ESCAPE_CLASSES = {
    "d": CharSet.range("0", "9"),
    "D": CharSet.range("0", "9").complement(),
    "w": (
        CharSet.range("a", "z")
        .union(CharSet.range("A", "Z"))
        .union(CharSet.range("0", "9"))
        .union(CharSet.of("_"))
    ),
    "s": CharSet.of(" \t\n\r\f\v"),
}
_ESCAPE_CLASSES["W"] = _ESCAPE_CLASSES["w"].complement()
_ESCAPE_CLASSES["S"] = _ESCAPE_CLASSES["s"].complement()

_ESCAPE_CHARS = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "a": "\a",
}

_SPECIAL = set("\\^$.[]|()*+?{}")

#: ``.`` matches any character except newline, mirroring grep/sed line
#: semantics; regular types describe single lines.
DOT = CharSet.of("\n").complement()


class _Parser:
    def __init__(self, pattern: str):
        self.pattern = pattern
        self.pos = 0

    # -- utilities ---------------------------------------------------------

    def error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.pattern, self.pos)

    def peek(self) -> Optional[str]:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def take(self) -> str:
        char = self.peek()
        if char is None:
            raise self.error("unexpected end of pattern")
        self.pos += 1
        return char

    def eat(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Node:
        node = self.alternation()
        if self.pos != len(self.pattern):
            raise self.error(f"unexpected {self.pattern[self.pos]!r}")
        return node

    def alternation(self) -> Node:
        branches = [self.sequence()]
        while self.eat("|"):
            branches.append(self.sequence())
        result: Node = branches[0]
        for branch in branches[1:]:
            result = Alt(result, branch)
        return result

    def sequence(self) -> Node:
        parts = []
        while True:
            char = self.peek()
            if char is None or char in ")|":
                break
            parts.append(self.repeated())
        return concat_all(*parts) if parts else Epsilon()

    def repeated(self) -> Node:
        atom = self.atom()
        while True:
            char = self.peek()
            if char == "*":
                self.take()
                atom = Star(atom)
            elif char == "+":
                self.take()
                atom = Concat(atom, Star(atom))
            elif char == "?":
                self.take()
                atom = Alt(Epsilon(), atom)
            elif char == "{":
                bounds = self._try_bounds()
                if bounds is None:
                    break
                lo, hi = bounds
                atom = Repeat(atom, lo, hi)
            else:
                break
        return atom

    def _try_bounds(self) -> Optional[Tuple[int, Optional[int]]]:
        """Parse ``{m}``, ``{m,}``, ``{m,n}``; a bare ``{`` is a literal."""
        start = self.pos
        self.take()  # "{"
        digits = ""
        while self.peek() is not None and self.peek().isdigit():
            digits += self.take()
        if not digits:
            self.pos = start
            return None
        lo = int(digits)
        hi: Optional[int] = lo
        if self.eat(","):
            digits = ""
            while self.peek() is not None and self.peek().isdigit():
                digits += self.take()
            hi = int(digits) if digits else None
        if not self.eat("}"):
            self.pos = start
            return None
        if hi is not None and hi < lo:
            raise self.error(f"bad repetition bounds {{{lo},{hi}}}")
        return lo, hi

    def atom(self) -> Node:
        char = self.take()
        if char == "(":
            # Non-capturing group markers are accepted and ignored.
            if self.pattern.startswith("?:", self.pos):
                self.pos += 2
            node = self.alternation()
            if not self.eat(")"):
                raise self.error("unbalanced '('")
            return node
        if char == "[":
            return Lit(self.charclass())
        if char == ".":
            return Lit(DOT)
        if char == "\\":
            return self.escape()
        if char in "^$":
            # Whole-string semantics: edge anchors are no-ops.
            return Epsilon()
        if char in "*+?":
            raise self.error(f"nothing to repeat before {char!r}")
        if char == ")":
            raise self.error("unbalanced ')'")
        if char == "{":
            # A "{" not opening a valid bound is a literal brace.
            self.pos -= 1
            bounds = self._try_bounds()
            if bounds is not None:
                raise self.error("nothing to repeat before '{'")
            self.pos += 1
            return Lit(CharSet.of("{"))
        return Lit(CharSet.of(char))

    def escape(self) -> Node:
        char = self.take()
        if char in _ESCAPE_CLASSES:
            return Lit(_ESCAPE_CLASSES[char])
        if char in _ESCAPE_CHARS:
            return Lit(CharSet.of(_ESCAPE_CHARS[char]))
        if char == "x":
            hexits = self.pattern[self.pos : self.pos + 2]
            if len(hexits) == 2 and all(h in "0123456789abcdefABCDEF" for h in hexits):
                self.pos += 2
                return Lit(CharSet.of(chr(int(hexits, 16))))
            raise self.error("bad \\x escape")
        return Lit(CharSet.of(char))

    def charclass(self) -> CharSet:
        negate = self.eat("^")
        items: CharSet = CharSet.empty()
        first = True
        while True:
            char = self.peek()
            if char is None:
                raise self.error("unbalanced '['")
            if char == "]" and not first:
                self.take()
                break
            first = False
            items = items.union(self._class_range())
        return items.complement() if negate else items

    def _class_range(self) -> CharSet:
        lo = self._class_char()
        if isinstance(lo, CharSet):
            return lo
        if self.peek() == "-" and self.pos + 1 < len(self.pattern) and self.pattern[self.pos + 1] != "]":
            self.take()
            hi = self._class_char()
            if isinstance(hi, CharSet):
                raise self.error("bad character range endpoint")
            if ord(hi) < ord(lo):
                raise self.error(f"reversed range {lo}-{hi}")
            return CharSet.range(lo, hi)
        return CharSet.of(lo)

    def _class_char(self):
        char = self.take()
        if char != "\\":
            if char == "[" and self.peek() == ":":
                return self._posix_class()
            return char
        escaped = self.take()
        if escaped in _ESCAPE_CLASSES:
            return _ESCAPE_CLASSES[escaped]
        if escaped in _ESCAPE_CHARS:
            return _ESCAPE_CHARS[escaped]
        return escaped

    _POSIX_CLASSES = {
        "alpha": CharSet.range("a", "z").union(CharSet.range("A", "Z")),
        "digit": CharSet.range("0", "9"),
        "alnum": CharSet.range("a", "z")
        .union(CharSet.range("A", "Z"))
        .union(CharSet.range("0", "9")),
        "upper": CharSet.range("A", "Z"),
        "lower": CharSet.range("a", "z"),
        "space": CharSet.of(" \t\n\r\f\v"),
        "xdigit": CharSet.range("0", "9")
        .union(CharSet.range("a", "f"))
        .union(CharSet.range("A", "F")),
        "punct": CharSet.of(r"""!"#$%&'()*+,-./:;<=>?@[\]^_`{|}~"""),
        "blank": CharSet.of(" \t"),
    }

    def _posix_class(self) -> CharSet:
        # Already consumed "[", peeked ":".
        end = self.pattern.find(":]", self.pos)
        if end == -1:
            raise self.error("unbalanced POSIX class")
        name = self.pattern[self.pos + 1 : end]
        self.pos = end + 2
        try:
            return self._POSIX_CLASSES[name]
        except KeyError:
            raise self.error(f"unknown POSIX class [:{name}:]") from None


def parse(pattern: str) -> Node:
    """Parse ``pattern`` into a regex AST (whole-string semantics)."""
    return _Parser(pattern).parse()
