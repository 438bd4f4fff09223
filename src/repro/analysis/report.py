"""Analysis reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..diag import Diagnostic, Severity


@dataclass
class Report:
    """The analyzer's verdict on one script."""

    source: str
    diagnostics: List[Diagnostic] = field(default_factory=list)
    paths_explored: int = 0
    paths_merged: int = 0
    states: int = 0
    #: times the engine dropped states past its path budget (`max_fork`);
    #: nonzero means the diagnostics may be incomplete
    truncations: int = 0

    # -- queries ------------------------------------------------------------

    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def races(self) -> List[Diagnostic]:
        """RACE-family hazards from the effect-graph analysis."""
        return [d for d in self.diagnostics if d.code.startswith("race-")]

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)

    @property
    def ok(self) -> bool:
        """No errors or warnings (infos are advisory)."""
        return not self.errors() and not self.warnings()

    @property
    def unsafe(self) -> bool:
        """At least one definite incorrectness."""
        return bool(self.errors())

    @classmethod
    def failure(cls, source: str, diagnostic: Diagnostic) -> "Report":
        """The report standing in for a script the batch driver could
        not analyze: unreadable, or quarantined after a crash."""
        return cls(source=source, diagnostics=[diagnostic])

    #: diagnostic codes marking a result as incomplete
    DEGRADED_CODES = ("analysis-degraded", "internal-error", "analysis-quarantined")

    @property
    def degraded(self) -> bool:
        """The analysis did not fully complete: a resource budget ran
        out, a component crashed and was isolated, or the file was
        quarantined by the batch driver.  Degraded reports are still
        renderable but are never written to the result cache (a later
        run re-analyzes the file from scratch)."""
        return any(d.code in self.DEGRADED_CODES for d in self.diagnostics)

    # -- serialization -------------------------------------------------------

    #: bump when the dict layout changes (also salted into cache keys)
    SCHEMA_VERSION = 1

    def to_dict(self) -> dict:
        """A JSON-safe dict that :meth:`from_dict` restores exactly —
        ``Report.from_dict(r.to_dict()).render()`` is byte-identical to
        ``r.render()``, including race hazards and ``related`` entries."""
        return {
            "schema": self.SCHEMA_VERSION,
            "source": self.source,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "paths_explored": self.paths_explored,
            "paths_merged": self.paths_merged,
            "states": self.states,
            "truncations": self.truncations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Report":
        return cls(
            source=data.get("source", ""),
            diagnostics=[
                Diagnostic.from_dict(d) for d in data.get("diagnostics", ())
            ],
            paths_explored=data.get("paths_explored", 0),
            paths_merged=data.get("paths_merged", 0),
            states=data.get("states", 0),
            truncations=data.get("truncations", 0),
        )

    # -- rendering -----------------------------------------------------------

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        lines = []
        shown = [d for d in self.diagnostics if not (d.severity < min_severity)]
        for diag in sorted(
            shown, key=lambda d: (d.pos.line if d.pos else 0, d.pos.col if d.pos else 0)
        ):
            lines.append(diag.render())
        summary = (
            f"{len(self.errors())} error(s), {len(self.warnings())} warning(s), "
            f"{len(self.infos())} note(s) — "
            f"{self.paths_explored} path step(s) explored, "
            f"{self.states} final state(s)"
        )
        hazards = self.races()
        if hazards:
            summary += f" [{len(hazards)} interleaving hazard(s)]"
        if self.truncations:
            summary += f" [truncated {self.truncations}x]"
        if self.degraded:
            summary += " [degraded]"
        lines.append(summary)
        return "\n".join(lines)
