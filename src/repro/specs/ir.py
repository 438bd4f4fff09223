"""Hoare-triple command specifications (paper §3, Fig. 4 right).

A :class:`CommandSpec` describes an opaque command well enough for the
symbolic engine: how its argv parses into flags and operands (the XBD
utility conventions), and a set of *clauses* — guarded Hoare triples::

    {(∃ $p) ∧ (arg 0 $p path.FD)}  rm -f -r $p  {(∄ $p) ∧ exit 0}

Each clause has a flag guard, preconditions on the file system, effects,
an exit code, and stream types.  Symbolic execution forks one path per
applicable clause, *assumes* the preconditions (an assumption that
contradicts established facts means the clause can never fire), applies
the effects, and continues with the clause's exit code.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..records import FrozenRecord, Record, set_field

if TYPE_CHECKING:  # the signature algebra loads only where a pipeline is typed
    from ..rtypes import Signature, StreamType


class PathKind(Enum):
    """What an operand path must denote."""

    FILE = auto()
    DIR = auto()
    ANY = auto()  # file or directory ("path.FD" in the paper's notation)


class Sel(Enum):
    """Operand selector for preconditions/effects."""

    EACH = auto()       # every path operand
    FIRST = auto()      # operand 0
    LAST = auto()       # the final operand (e.g. cp/mv destination)
    ALL_BUT_LAST = auto()


# -- preconditions -------------------------------------------------------------


class Pre(FrozenRecord):
    __slots__ = ()


class Exists(Pre):
    __slots__ = ("sel", "kind")

    def __init__(self, sel: Sel = Sel.EACH, kind: PathKind = PathKind.ANY):
        set_field(self, "sel", sel)
        set_field(self, "kind", kind)

    def __str__(self) -> str:
        return f"(∃ {_sel(self.sel)}:{self.kind.name.lower()})"


class Absent(Pre):
    __slots__ = ("sel",)

    def __init__(self, sel: Sel = Sel.EACH):
        set_field(self, "sel", sel)

    def __str__(self) -> str:
        return f"(∄ {_sel(self.sel)})"


class ParentExists(Pre):
    __slots__ = ("sel",)

    def __init__(self, sel: Sel = Sel.EACH):
        set_field(self, "sel", sel)

    def __str__(self) -> str:
        return f"(∃ dirname {_sel(self.sel)})"


# -- effects ----------------------------------------------------------------------


class Effect(FrozenRecord):
    __slots__ = ()


class Deletes(Effect):
    __slots__ = ("sel", "recursive")

    def __init__(self, sel: Sel = Sel.EACH, recursive: bool = False):
        set_field(self, "sel", sel)
        set_field(self, "recursive", recursive)

    def __str__(self) -> str:
        extra = " -r" if self.recursive else ""
        return f"delete{extra} {_sel(self.sel)}"


class Creates(Effect):
    __slots__ = ("sel", "kind", "ensure_parents")

    def __init__(
        self, sel: Sel = Sel.EACH, kind: PathKind = PathKind.FILE, ensure_parents: bool = False
    ):
        set_field(self, "sel", sel)
        set_field(self, "kind", kind)
        set_field(self, "ensure_parents", ensure_parents)

    def __str__(self) -> str:
        return f"create {self.kind.name.lower()} {_sel(self.sel)}"


class WritesFile(Effect):
    __slots__ = ("sel",)

    def __init__(self, sel: Sel = Sel.EACH):
        set_field(self, "sel", sel)

    def __str__(self) -> str:
        return f"write {_sel(self.sel)}"


class ReadsFile(Effect):
    __slots__ = ("sel",)

    def __init__(self, sel: Sel = Sel.EACH):
        set_field(self, "sel", sel)

    def __str__(self) -> str:
        return f"read {_sel(self.sel)}"


class ListsDir(Effect):
    __slots__ = ("sel",)

    def __init__(self, sel: Sel = Sel.EACH):
        set_field(self, "sel", sel)

    def __str__(self) -> str:
        return f"list {_sel(self.sel)}"


class CopiesTo(Effect):
    """Copy/move sources to the last operand."""

    __slots__ = ("move",)

    def __init__(self, move: bool = False):
        set_field(self, "move", move)

    def __str__(self) -> str:
        return "move sources -> last" if self.move else "copy sources -> last"


class LinksTo(Effect):
    """Create the last operand as a symlink to the first (ln -s)."""

    __slots__ = ()

    def __str__(self) -> str:
        return "symlink $dst -> $p0"


def _sel(sel: Sel) -> str:
    return {
        Sel.EACH: "$p",
        Sel.FIRST: "$p0",
        Sel.LAST: "$dst",
        Sel.ALL_BUT_LAST: "$srcs",
    }[sel]


# -- clauses and specs -----------------------------------------------------------


class Clause(FrozenRecord):
    """A guarded Hoare triple.

    The guard: ``requires_flags`` must all be present and
    ``forbids_flags`` all absent for this clause; ``stderr`` marks a
    clause that produces stderr output.
    """

    __slots__ = (
        "pre", "effects", "exit_code", "requires_flags", "forbids_flags", "stderr", "note"
    )

    def __init__(
        self,
        pre: Tuple[Pre, ...] = (),
        effects: Tuple[Effect, ...] = (),
        exit_code: int = 0,
        requires_flags: FrozenSet[str] = frozenset(),
        forbids_flags: FrozenSet[str] = frozenset(),
        stderr: bool = False,
        note: str = "",
    ):
        set_field(self, "pre", pre)
        set_field(self, "effects", effects)
        set_field(self, "exit_code", exit_code)
        set_field(self, "requires_flags", requires_flags)
        set_field(self, "forbids_flags", forbids_flags)
        set_field(self, "stderr", stderr)
        set_field(self, "note", note)

    def applicable(self, flags: FrozenSet[str]) -> bool:
        return self.requires_flags <= flags and not (self.forbids_flags & flags)

    def triple(self, command: str) -> str:
        pre = " ∧ ".join(str(p) for p in self.pre) or "true"
        post_parts = [str(e) for e in self.effects]
        post_parts.append(f"exit {self.exit_code}")
        post = " ∧ ".join(post_parts)
        invocation = " ".join([command, *sorted(self.requires_flags), "$p"])
        return f"{{{pre}}} {invocation} {{{post}}}"


class Invocation(Record):
    """A parsed argv: flags (with values) and positional operands
    (indices into the original word list)."""

    __slots__ = ("name", "flags", "flag_values", "operands")

    def __init__(
        self, name: str, flags: FrozenSet[str], flag_values: Dict[str, str], operands: List[int]
    ):
        self.name = name
        self.flags = flags
        self.flag_values = flag_values
        self.operands = operands

    def has(self, *flags: str) -> bool:
        return any(f in self.flags for f in flags)


class SpecParseError(ValueError):
    """argv does not satisfy the command's invocation syntax."""


class CommandSpec(Record):
    """Specification of one command.

    ``options``/``long_options`` map a flag to True when it consumes an
    argument.  ``stdout`` is the output stream type produced on success
    (None = no stdout / unknown); ``signature``, when present, is the
    stream-transformer signature and overrides it.  ``platform_flags``
    gives the platforms each flag is available on (E15); a missing flag
    is portable.  ``operands_are_paths`` drives fs reasoning;
    ``path_operands_from`` is the index of the first path operand, for
    commands whose leading operand(s) are not paths (``grep pattern
    file...`` → 1).  ``summary`` is a free-form documentation line
    (mirrors the man page's NAME section).
    """

    __slots__ = (
        "name", "options", "long_options", "clauses", "min_operands", "max_operands",
        "stdout", "signature", "platform_flags", "operands_are_paths",
        "path_operands_from", "summary",
    )

    def __init__(
        self,
        name: str,
        options: Optional[Dict[str, bool]] = None,
        long_options: Optional[Dict[str, bool]] = None,
        clauses: Optional[List[Clause]] = None,
        min_operands: int = 0,
        max_operands: Optional[int] = None,
        stdout: Optional[StreamType] = None,
        signature: Optional[Signature] = None,
        platform_flags: Optional[Dict[str, FrozenSet[str]]] = None,
        operands_are_paths: bool = True,
        path_operands_from: int = 0,
        summary: str = "",
    ):
        self.name = name
        self.options = {} if options is None else options
        self.long_options = {} if long_options is None else long_options
        self.clauses = [] if clauses is None else clauses
        self.min_operands = min_operands
        self.max_operands = max_operands
        self.stdout = stdout
        self.signature = signature
        self.platform_flags = {} if platform_flags is None else platform_flags
        self.operands_are_paths = operands_are_paths
        self.path_operands_from = path_operands_from
        self.summary = summary

    # -- argv parsing (XBD utility syntax guidelines) -------------------------

    def parse_argv(self, argv: Sequence[str]) -> Invocation:
        """Parse flags/operands; raises :class:`SpecParseError` on
        violations of the declared syntax."""
        flags = set()
        flag_values: Dict[str, str] = {}
        operands: List[int] = []
        idx = 1
        seen_ddash = False
        while idx < len(argv):
            arg = argv[idx]
            if not seen_ddash and arg == "--":
                seen_ddash = True
            elif not seen_ddash and arg.startswith("--"):
                key, _, value = arg[2:].partition("=")
                if key not in self.long_options:
                    raise SpecParseError(f"{self.name}: unknown option --{key}")
                flags.add("--" + key)
                if self.long_options[key] and value:
                    flag_values["--" + key] = value
            elif not seen_ddash and arg.startswith("-") and arg != "-":
                jdx = 1
                while jdx < len(arg):
                    char = arg[jdx]
                    if char not in self.options:
                        raise SpecParseError(f"{self.name}: unknown option -{char}")
                    flags.add("-" + char)
                    if self.options[char]:
                        value = arg[jdx + 1 :]
                        if not value:
                            idx += 1
                            if idx >= len(argv):
                                raise SpecParseError(
                                    f"{self.name}: option -{char} requires an argument"
                                )
                            value = argv[idx]
                        flag_values["-" + char] = value
                        break
                    jdx += 1
            else:
                operands.append(idx)
            idx += 1
        if len(operands) < self.min_operands:
            raise SpecParseError(
                f"{self.name}: expected at least {self.min_operands} operand(s)"
            )
        if self.max_operands is not None and len(operands) > self.max_operands:
            raise SpecParseError(
                f"{self.name}: expected at most {self.max_operands} operand(s)"
            )
        return Invocation(self.name, frozenset(flags), flag_values, operands)

    # -- queries -------------------------------------------------------------------

    def applicable_clauses(self, flags: FrozenSet[str]) -> List[Clause]:
        return [c for c in self.clauses if c.applicable(flags)]

    def triples(self) -> List[str]:
        return [c.triple(self.name) for c in self.clauses]

    def unsupported_flags_on(self, platform: str) -> List[str]:
        """Flags this spec declares unavailable on ``platform`` (E15)."""
        return sorted(
            flag
            for flag, platforms in self.platform_flags.items()
            if platform not in platforms
        )
