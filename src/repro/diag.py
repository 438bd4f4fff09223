"""Diagnostics shared by the engine, checkers, linter, and analyzer."""

from __future__ import annotations

import functools
from enum import Enum
from typing import List, Optional, Tuple

from .records import FrozenRecord, set_field
from .shell.tokens import Position


@functools.total_ordering
class Severity(Enum):
    ERROR = "error"      # definite incorrectness on some/all paths
    WARNING = "warning"  # likely incorrectness
    INFO = "info"        # noteworthy (untyped command, platform hint)

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, Severity):
            return NotImplemented
        return self.rank < other.rank


class Diagnostic(FrozenRecord):
    """One finding.

    ``code`` names it (e.g. "dangerous-deletion", "dead-stream").
    ``always`` says whether the issue holds on every execution path
    ("always") or only on some feasible path ("may").  ``witness`` is
    evidence, e.g. a concrete variable assignment triggering the bug.
    ``source`` is "semantic", "lint", "types" or "platform".
    ``related`` lists other program points involved (e.g. both commands
    of a race).
    """

    __slots__ = (
        "code", "message", "severity", "pos", "always", "witness", "source", "related"
    )

    def __init__(
        self,
        code: str,
        message: str,
        severity: Severity = Severity.WARNING,
        pos: Optional[Position] = None,
        always: bool = False,
        witness: str = "",
        source: str = "semantic",
        related: Tuple[str, ...] = (),
    ):
        set_field(self, "code", code)
        set_field(self, "message", message)
        set_field(self, "severity", severity)
        set_field(self, "pos", pos)
        set_field(self, "always", always)
        set_field(self, "witness", witness)
        set_field(self, "source", source)
        set_field(self, "related", related)

    def render(self) -> str:
        location = f"{self.pos}: " if self.pos else ""
        modality = "always" if self.always else "may"
        tail = f" [witness: {self.witness}]" if self.witness else ""
        if self.related:
            tail += "".join(f"\n    with: {entry}" for entry in self.related)
        return (
            f"{location}{self.severity.value}[{self.code}] ({modality}) "
            f"{self.message}{tail}"
        )

    def key(self) -> Tuple:
        return (self.code, self.message, str(self.pos), self.always)

    # -- serialization (stable across processes and cache generations) ------

    def to_dict(self) -> dict:
        data = {
            "code": self.code,
            "message": self.message,
            "severity": self.severity.value,
            "always": self.always,
            "witness": self.witness,
            "source": self.source,
            "related": list(self.related),
        }
        if self.pos is not None:
            data["pos"] = {
                "line": self.pos.line,
                "col": self.pos.col,
                "offset": self.pos.offset,
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Diagnostic":
        pos = None
        if data.get("pos") is not None:
            raw = data["pos"]
            pos = Position(
                line=raw.get("line", 1),
                col=raw.get("col", 1),
                offset=raw.get("offset", 0),
            )
        return cls(
            code=data["code"],
            message=data["message"],
            severity=Severity(data.get("severity", "warning")),
            pos=pos,
            always=data.get("always", False),
            witness=data.get("witness", ""),
            source=data.get("source", "semantic"),
            related=tuple(data.get("related", ())),
        )


def dedupe(diagnostics: List[Diagnostic]) -> List[Diagnostic]:
    """Drop duplicates, preferring 'always' over 'may' for the same issue."""
    chosen = {}
    order = []
    for diag in diagnostics:
        key = (diag.code, diag.message, str(diag.pos))
        if key not in chosen:
            chosen[key] = diag
            order.append(key)
        elif diag.always and not chosen[key].always:
            chosen[key] = diag
    return [chosen[k] for k in order]
