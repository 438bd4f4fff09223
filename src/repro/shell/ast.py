"""Abstract syntax for POSIX shell programs.

Words keep their internal structure (quoting, parameter expansions,
command substitutions, globs) because the analysis reasons about
expansion semantically — e.g. Fig. 1's ``"${0%/*}"`` must be visible as a
suffix-strip operation on ``$0``, not as an opaque string.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..records import Record
from .tokens import Position

# ---------------------------------------------------------------------------
# Word structure
# ---------------------------------------------------------------------------


class Part(Record):
    """Base class for word parts."""

    __slots__ = ()


class LiteralPart(Part):
    """Literal text; ``quoted`` marks text under quotes or backslashes
    (immune to field splitting and pathname expansion)."""

    __slots__ = ("text", "quoted")

    def __init__(self, text: str, quoted: bool = False):
        self.text = text
        self.quoted = quoted


class ParamPart(Part):
    """Parameter expansion ``$name`` / ``${name}`` / ``${name<op>word}``.

    ``op`` is one of ``:- - := = :? ? :+ + % %% # ##`` or ``len`` for
    ``${#name}``; ``arg`` is the operand word (None for plain expansion).
    ``quoted`` is True inside double quotes (no field splitting).
    """

    __slots__ = ("name", "op", "arg", "quoted")

    def __init__(
        self,
        name: str,
        op: Optional[str] = None,
        arg: Optional["Word"] = None,
        quoted: bool = False,
    ):
        self.name = name
        self.op = op
        self.arg = arg
        self.quoted = quoted


class CmdSubPart(Part):
    """Command substitution ``$(...)`` or `` `...` ``."""

    __slots__ = ("command", "source", "quoted")

    def __init__(self, command: "Command", source: str = "", quoted: bool = False):
        self.command = command
        self.source = source
        self.quoted = quoted


class ArithPart(Part):
    """Arithmetic expansion ``$((expr))`` (expression kept as text)."""

    __slots__ = ("expr", "quoted")

    def __init__(self, expr: str, quoted: bool = False):
        self.expr = expr
        self.quoted = quoted


class GlobPart(Part):
    """An unquoted pathname-expansion metacharacter (``*`` or ``?``)."""

    __slots__ = ("char",)

    def __init__(self, char: str):
        self.char = char


class TildePart(Part):
    """A leading unquoted ``~`` or ``~user``."""

    __slots__ = ("user",)

    def __init__(self, user: str = ""):
        self.user = user


class Word(Record):
    __slots__ = ("parts", "raw", "pos")

    def __init__(
        self,
        parts: Optional[List[Part]] = None,
        raw: str = "",
        pos: Optional[Position] = None,
    ):
        self.parts = [] if parts is None else parts
        self.raw = raw
        self.pos = Position() if pos is None else pos

    def literal_text(self) -> Optional[str]:
        """The word's static string value, or None if any part expands
        dynamically."""
        chunks = []
        for part in self.parts:
            if isinstance(part, LiteralPart):
                chunks.append(part.text)
            elif isinstance(part, GlobPart):
                chunks.append(part.char)
            else:
                return None
        return "".join(chunks)

    def is_fully_quoted(self) -> bool:
        return all(
            (isinstance(p, LiteralPart) and p.quoted)
            or (isinstance(p, (ParamPart, CmdSubPart, ArithPart)) and p.quoted)
            for p in self.parts
        )

    def has_glob(self) -> bool:
        return any(isinstance(p, GlobPart) for p in self.parts)

    def expansions(self) -> List[Part]:
        return [p for p in self.parts if isinstance(p, (ParamPart, CmdSubPart, ArithPart))]

    def __repr__(self) -> str:
        return f"Word({self.raw!r})"


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
#
# A list- or Position-valued parameter left out (or passed as None) gets
# a fresh object per instance.


class Command(Record):
    """Base class for command AST nodes."""

    __slots__ = ()


class Redirect(Record):
    # ``op``: one of < > >> << <<- <& >& <> >|; ``fd``: the explicit
    # IO_NUMBER if present
    __slots__ = ("op", "target", "fd", "heredoc_body", "heredoc_quoted")

    def __init__(
        self,
        op: str,
        target: Word,
        fd: Optional[int] = None,
        heredoc_body: Optional[str] = None,
        heredoc_quoted: bool = False,
    ):
        self.op = op
        self.target = target
        self.fd = fd
        self.heredoc_body = heredoc_body
        self.heredoc_quoted = heredoc_quoted


class Assignment(Record):
    __slots__ = ("name", "value", "pos")

    def __init__(self, name: str, value: Word, pos: Optional[Position] = None):
        self.name = name
        self.value = value
        self.pos = Position() if pos is None else pos


class SimpleCommand(Command):
    __slots__ = ("words", "assignments", "redirects", "pos")

    def __init__(
        self,
        words: Optional[List[Word]] = None,
        assignments: Optional[List[Assignment]] = None,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.words = [] if words is None else words
        self.assignments = [] if assignments is None else assignments
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos

    @property
    def name(self) -> Optional[str]:
        """Static command name, when the first word is literal."""
        if self.words:
            return self.words[0].literal_text()
        return None


class Pipeline(Command):
    """``a | b | c`` with optional leading ``!``."""

    __slots__ = ("commands", "negated", "pos")

    def __init__(
        self, commands: List[Command], negated: bool = False, pos: Optional[Position] = None
    ):
        self.commands = commands
        self.negated = negated
        self.pos = Position() if pos is None else pos


class AndOr(Command):
    """``left && right`` or ``left || right`` (left associative)."""

    __slots__ = ("left", "op", "right", "pos")

    def __init__(
        self, left: Command, op: str, right: Command, pos: Optional[Position] = None
    ):
        self.left = left
        self.op = op  # "&&" or "||"
        self.right = right
        self.pos = Position() if pos is None else pos


class Sequence(Command):
    """Commands separated by ``;`` or newline."""

    __slots__ = ("commands", "pos")

    def __init__(self, commands: List[Command], pos: Optional[Position] = None):
        self.commands = commands
        self.pos = Position() if pos is None else pos


class Background(Command):
    """``cmd &``"""

    __slots__ = ("command", "pos")

    def __init__(self, command: Command, pos: Optional[Position] = None):
        self.command = command
        self.pos = Position() if pos is None else pos


class Subshell(Command):
    __slots__ = ("body", "redirects", "pos")

    def __init__(
        self,
        body: Command,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.body = body
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos


class BraceGroup(Command):
    __slots__ = ("body", "redirects", "pos")

    def __init__(
        self,
        body: Command,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.body = body
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos


class If(Command):
    __slots__ = ("cond", "then", "elifs", "else_", "redirects", "pos")

    def __init__(
        self,
        cond: Command,
        then: Command,
        elifs: Optional[List["ElifClause"]] = None,
        else_: Optional[Command] = None,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.cond = cond
        self.then = then
        self.elifs = [] if elifs is None else elifs
        self.else_ = else_
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos


class ElifClause(Record):
    __slots__ = ("cond", "then")

    def __init__(self, cond: Command, then: Command):
        self.cond = cond
        self.then = then


class While(Command):
    __slots__ = ("cond", "body", "until", "redirects", "pos")

    def __init__(
        self,
        cond: Command,
        body: Command,
        until: bool = False,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.cond = cond
        self.body = body
        self.until = until  # True for `until` loops
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos


class For(Command):
    __slots__ = ("var", "words", "body", "redirects", "pos")

    def __init__(
        self,
        var: str,
        words: Optional[List[Word]],
        body: Command,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.var = var
        self.words = words  # None means implicit `in "$@"`
        self.body = body
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos


class CaseItem(Record):
    __slots__ = ("patterns", "body")

    def __init__(self, patterns: List[Word], body: Optional[Command]):
        self.patterns = patterns
        self.body = body


class Case(Command):
    __slots__ = ("subject", "items", "redirects", "pos")

    def __init__(
        self,
        subject: Word,
        items: Optional[List[CaseItem]] = None,
        redirects: Optional[List[Redirect]] = None,
        pos: Optional[Position] = None,
    ):
        self.subject = subject
        self.items = [] if items is None else items
        self.redirects = [] if redirects is None else redirects
        self.pos = Position() if pos is None else pos


class FunctionDef(Command):
    __slots__ = ("name", "body", "pos")

    def __init__(self, name: str, body: Command, pos: Optional[Position] = None):
        self.name = name
        self.body = body
        self.pos = Position() if pos is None else pos


def walk(node: Union[Command, None], substitutions: bool = True):
    """Yield every Command node in the subtree rooted at ``node``
    (pre-order), descending into command substitutions inside words
    unless ``substitutions`` is False."""
    if node is None:
        return
    yield node
    children: List[Optional[Command]] = []
    words: List[Word] = []
    if isinstance(node, SimpleCommand):
        words.extend(node.words)
        words.extend(a.value for a in node.assignments)
        words.extend(r.target for r in node.redirects)
    elif isinstance(node, Pipeline):
        children.extend(node.commands)
    elif isinstance(node, AndOr):
        children.extend([node.left, node.right])
    elif isinstance(node, Sequence):
        children.extend(node.commands)
    elif isinstance(node, Background):
        children.append(node.command)
    elif isinstance(node, (Subshell, BraceGroup)):
        children.append(node.body)
        words.extend(r.target for r in node.redirects)
    elif isinstance(node, If):
        children.extend([node.cond, node.then])
        for clause in node.elifs:
            children.extend([clause.cond, clause.then])
        children.append(node.else_)
        words.extend(r.target for r in node.redirects)
    elif isinstance(node, While):
        children.extend([node.cond, node.body])
        words.extend(r.target for r in node.redirects)
    elif isinstance(node, For):
        children.append(node.body)
        if node.words:
            words.extend(node.words)
        words.extend(r.target for r in node.redirects)
    elif isinstance(node, Case):
        words.append(node.subject)
        for item in node.items:
            words.extend(item.patterns)
            children.append(item.body)
        words.extend(r.target for r in node.redirects)
    elif isinstance(node, FunctionDef):
        children.append(node.body)
    for child in children:
        yield from walk(child, substitutions)
    if substitutions:
        for word in words:
            yield from _walk_word(word)


def _walk_word(word: Word):
    for part in word.parts:
        if isinstance(part, CmdSubPart):
            yield from walk(part.command)
        elif isinstance(part, ParamPart) and part.arg is not None:
            yield from _walk_word(part.arg)


def first_pos(node: Union[Command, None]) -> Optional[Position]:
    """The position of the first positioned command in a subtree.

    Compound nodes built by the parser sometimes carry a default
    position while their leaves are located; provenance (effect-graph
    origins, hazard diagnostics) wants the earliest real location.  The
    commands of a substitution are not read: a ``$(...)`` body's
    commands start after the command that holds it, and a backquoted
    body's positions count from its own unescaped text.
    """
    best: Optional[Position] = None
    for sub in walk(node, substitutions=False):
        pos = getattr(sub, "pos", None)
        if pos is None:
            continue
        if best is None or (pos.line, pos.col) < (best.line, best.col):
            best = pos
    return best


def structure(node):
    """A position-free structural digest of an AST (or word/part), for
    equality in round-trip tests."""
    if node is None:
        return None
    if isinstance(node, Word):
        return ("word", tuple(structure(p) for p in node.parts))
    if isinstance(node, LiteralPart):
        return ("lit", node.text, node.quoted)
    if isinstance(node, ParamPart):
        return ("param", node.name, node.op, structure(node.arg), node.quoted)
    if isinstance(node, CmdSubPart):
        return ("cmdsub", structure(node.command), node.quoted)
    if isinstance(node, ArithPart):
        return ("arith", node.expr, node.quoted)
    if isinstance(node, GlobPart):
        return ("glob", node.char)
    if isinstance(node, TildePart):
        return ("tilde", node.user)
    if isinstance(node, Redirect):
        return ("redirect", node.op, node.fd, structure(node.target), node.heredoc_body)
    if isinstance(node, Assignment):
        return ("assign", node.name, structure(node.value))
    if isinstance(node, SimpleCommand):
        return (
            "simple",
            tuple(structure(w) for w in node.words),
            tuple(structure(a) for a in node.assignments),
            tuple(structure(r) for r in node.redirects),
        )
    if isinstance(node, Pipeline):
        return ("pipe", node.negated, tuple(structure(c) for c in node.commands))
    if isinstance(node, AndOr):
        return ("andor", node.op, structure(node.left), structure(node.right))
    if isinstance(node, Sequence):
        return ("seq", tuple(structure(c) for c in node.commands))
    if isinstance(node, Background):
        return ("bg", structure(node.command))
    if isinstance(node, Subshell):
        return ("subshell", structure(node.body), tuple(structure(r) for r in node.redirects))
    if isinstance(node, BraceGroup):
        return ("brace", structure(node.body), tuple(structure(r) for r in node.redirects))
    if isinstance(node, If):
        return (
            "if",
            structure(node.cond),
            structure(node.then),
            tuple((structure(c.cond), structure(c.then)) for c in node.elifs),
            structure(node.else_),
            tuple(structure(r) for r in node.redirects),
        )
    if isinstance(node, While):
        return ("while", node.until, structure(node.cond), structure(node.body),
                tuple(structure(r) for r in node.redirects))
    if isinstance(node, For):
        return (
            "for",
            node.var,
            tuple(structure(w) for w in node.words) if node.words is not None else None,
            structure(node.body),
            tuple(structure(r) for r in node.redirects),
        )
    if isinstance(node, Case):
        return (
            "case",
            structure(node.subject),
            tuple(
                (tuple(structure(p) for p in item.patterns), structure(item.body))
                for item in node.items
            ),
            tuple(structure(r) for r in node.redirects),
        )
    if isinstance(node, FunctionDef):
        return ("func", node.name, structure(node.body))
    raise TypeError(f"cannot digest {type(node).__name__}")
