"""Diagnostics shared by the engine, checkers, linter, and analyzer,
and the ones that stand in for a crashed component or a bounded
analysis."""

from __future__ import annotations

import functools
from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Tuple

from .records import FrozenRecord, set_field
from .shell.tokens import Position

if TYPE_CHECKING:
    from .budget import AnalysisBudgetExceeded


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


# ---------------------------------------------------------------------------
# Crash and degradation diagnostics
# ---------------------------------------------------------------------------


def exception_digest(exc: BaseException) -> str:
    """A short, stable identifier for an exception (type + message),
    suitable for grouping crash reports without leaking full tracebacks
    into diagnostics."""
    import hashlib  # only crash and quarantine paths get here: keep it off start-up

    summary = f"{type(exc).__name__}: {exc}"
    digest = hashlib.sha256(summary.encode("utf-8", "replace")).hexdigest()[:8]
    if len(summary) > 120:
        summary = summary[:117] + "..."
    return f"{summary} [{digest}]"


def internal_error_diagnostic(where: str, exc: BaseException) -> Diagnostic:
    """The diagnostic standing in for a crashed component."""
    return Diagnostic(
        code="internal-error",
        message=f"{where} crashed: {exception_digest(exc)}; "
        "results may be incomplete",
        severity=Severity.INFO,
        always=True,
        source="internal",
    )


def degraded_diagnostic(exc: "AnalysisBudgetExceeded", analyzed: str) -> Diagnostic:
    """The diagnostic recording a budget-bounded partial analysis."""
    return Diagnostic(
        code="analysis-degraded",
        message=f"analysis degraded: {exc.budget} budget exhausted during "
        f"the {exc.phase} phase ({exc.detail}); {analyzed}",
        severity=Severity.INFO,
        always=True,
        source="internal",
    )


def quarantine_diagnostic(cause: BaseException, retry: Optional[BaseException]) -> Diagnostic:
    """The diagnostic standing in for a file the batch driver gave up
    on: the first attempt killed its worker (or crashed), and the
    bounded inline retry failed too."""
    message = f"file quarantined: analysis failed ({exception_digest(cause)})"
    if retry is not None and retry is not cause:
        message += f"; retry failed ({exception_digest(retry)})"
    return Diagnostic(
        code="analysis-quarantined",
        message=message,
        severity=Severity.INFO,
        always=True,
        source="internal",
    )
