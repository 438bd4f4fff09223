"""The optimization plan: the advisor's machine-readable output.

A plan is what a PaSh-like rewriter would consume (paper §5,
"Performance"): per-pipeline stage classifications with split points and
merge operators, script-level reorder groups that are safe under ``&``,
the parallel schedule, and the dependence edges that justify every
decision.  The plan is deliberately **deterministic** — no timings, no
absolute paths — so a cached, server-returned, or re-rendered plan is
byte-identical to an inline run over the same source and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

#: bump when the dict layout changes (salted into plan cache keys, so a
#: schema change invalidates exactly the plan entries)
PLAN_SCHEMA_VERSION = 1

#: the parallelizability taxonomy (PaSh-style)
STATELESS = "stateless"          # pure per-line map: split anywhere, merge by cat
PARALLELIZABLE = "parallelizable"  # splittable with a non-trivial merge operator
COMMUTATIVE = "commutative"      # order-insensitive aggregator (sort, wc)
BLOCKING = "blocking"            # consumes/ignores the whole stream; no split
UNSAFE = "unsafe"                # side effects: duplicating it per chunk is wrong
UNKNOWN = "unknown"              # no evidence either way

CLASSES = (STATELESS, PARALLELIZABLE, COMMUTATIVE, BLOCKING, UNSAFE, UNKNOWN)


@dataclass
class StagePlan:
    """One pipeline stage's classification."""

    index: int
    text: str                       # rendered source of the stage
    klass: str                      # one of CLASSES
    argv: Optional[List[str]] = None  # None when any argument is dynamic
    merge: Optional[str] = None     # merge operator for split execution
    evidence: str = ""              # the signature/spec fact that licensed it
    role: str = "transformer"       # "transformer" | "source"
    stream_type: Optional[str] = None  # inferred output line language

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "text": self.text,
            "class": self.klass,
            "argv": self.argv,
            "merge": self.merge,
            "evidence": self.evidence,
            "role": self.role,
            "stream_type": self.stream_type,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StagePlan":
        return cls(
            index=data.get("index", 0),
            text=data.get("text", ""),
            klass=data.get("class", UNKNOWN),
            argv=data.get("argv"),
            merge=data.get("merge"),
            evidence=data.get("evidence", ""),
            role=data.get("role", "transformer"),
            stream_type=data.get("stream_type"),
        )


@dataclass
class SplitRange:
    """A maximal run of stages that can run data-parallel over input
    chunks, with the operator that merges the chunk outputs."""

    begin: int
    end: int
    merge: str
    justification: str

    def to_dict(self) -> dict:
        return {
            "begin": self.begin,
            "end": self.end,
            "merge": self.merge,
            "justification": self.justification,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SplitRange":
        return cls(
            begin=data.get("begin", 0),
            end=data.get("end", 0),
            merge=data.get("merge", "cat"),
            justification=data.get("justification", ""),
        )


@dataclass
class PipelinePlan:
    """Stage classification of one pipeline in the script."""

    command: int                    # index of the enclosing top-level command
    line: int
    source: str
    stages: List[StagePlan] = field(default_factory=list)
    splits: List[SplitRange] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "line": self.line,
            "source": self.source,
            "stages": [s.to_dict() for s in self.stages],
            "splits": [s.to_dict() for s in self.splits],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelinePlan":
        return cls(
            command=data.get("command", 0),
            line=data.get("line", 0),
            source=data.get("source", ""),
            stages=[StagePlan.from_dict(s) for s in data.get("stages", ())],
            splits=[SplitRange.from_dict(s) for s in data.get("splits", ())],
            notes=list(data.get("notes", ())),
        )


@dataclass
class ReorderGroup:
    """Top-level commands with no dependence edges among them, verified
    safe to run concurrently under ``&`` ... ``wait``."""

    commands: List[int]
    sources: List[str]
    verified: bool
    justification: str

    def to_dict(self) -> dict:
        return {
            "commands": list(self.commands),
            "sources": list(self.sources),
            "verified": self.verified,
            "justification": self.justification,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ReorderGroup":
        return cls(
            commands=list(data.get("commands", ())),
            sources=list(data.get("sources", ())),
            verified=data.get("verified", False),
            justification=data.get("justification", ""),
        )


@dataclass
class OptimizePlan:
    """The advisor's full verdict on one script."""

    source_sha256: str = ""
    degraded: bool = False
    degraded_reason: Optional[str] = None
    commands: List[str] = field(default_factory=list)
    pipelines: List[PipelinePlan] = field(default_factory=list)
    groups: List[ReorderGroup] = field(default_factory=list)
    #: candidate groups the race-detector cross-check refused, with why —
    #: the advisor never emits a transform it cannot prove hazard-free
    rejected: List[dict] = field(default_factory=list)
    #: commands excluded from backgrounding, with why (shell-state
    #: mutations do not survive a ``&`` subshell)
    pinned: List[dict] = field(default_factory=list)
    schedule: List[List[int]] = field(default_factory=list)
    dependencies: List[dict] = field(default_factory=list)
    rewritten_script: Optional[str] = None

    SCHEMA_VERSION = PLAN_SCHEMA_VERSION
    #: a plan never finds a script incorrect: repro-optimize exits 0 or 3
    unsafe = False

    @classmethod
    def failure(cls, source: str, diagnostic) -> "OptimizePlan":
        """The degraded plan standing in for a script the batch driver
        could not plan: unreadable, or quarantined after a crash."""
        reason = f"{diagnostic.code.replace('-', ' ')}: {diagnostic.message}"
        return cls(degraded=True, degraded_reason=reason)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe dict that :meth:`from_dict` restores exactly;
        ``OptimizePlan.from_dict(p.to_dict()).to_dict() == p.to_dict()``
        (the server round-trips plans through this identity so daemon
        responses are byte-identical to inline runs)."""
        return {
            "schema": self.SCHEMA_VERSION,
            "source_sha256": self.source_sha256,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
            "commands": list(self.commands),
            "pipelines": [p.to_dict() for p in self.pipelines],
            "groups": [g.to_dict() for g in self.groups],
            "rejected": [dict(r) for r in self.rejected],
            "pinned": [dict(p) for p in self.pinned],
            "schedule": [list(gen) for gen in self.schedule],
            "dependencies": [dict(d) for d in self.dependencies],
            "rewritten_script": self.rewritten_script,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "OptimizePlan":
        return cls(
            source_sha256=data.get("source_sha256", ""),
            degraded=data.get("degraded", False),
            degraded_reason=data.get("degraded_reason"),
            commands=list(data.get("commands", ())),
            pipelines=[PipelinePlan.from_dict(p) for p in data.get("pipelines", ())],
            groups=[ReorderGroup.from_dict(g) for g in data.get("groups", ())],
            rejected=[dict(r) for r in data.get("rejected", ())],
            pinned=[dict(p) for p in data.get("pinned", ())],
            schedule=[list(gen) for gen in data.get("schedule", ())],
            dependencies=[dict(d) for d in data.get("dependencies", ())],
            rewritten_script=data.get("rewritten_script"),
        )

    def to_dot(self) -> str:
        """Graphviz export of the dependence graph with verified
        ``&``-groups highlighted (``repro-optimize --dot``)."""
        from ..viz import dependency_dot

        return dependency_dot(
            self.commands,
            self.dependencies,
            [group.commands for group in self.groups],
        )

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """The human-readable report (deterministic, like the dict)."""
        header = (
            f"optimization plan · sha256 {self.source_sha256[:12] or '?'} · "
            f"schema {self.SCHEMA_VERSION}"
        )
        if self.degraded:
            header += f" [degraded: {self.degraded_reason or 'budget exhausted'}]"
        lines = [header, "commands:"]
        for index, text in enumerate(self.commands):
            lines.append(f"  [{index}] {text}")
        if self.pipelines:
            lines.append("pipelines:")
            for pipe in self.pipelines:
                lines.append(f"  line {pipe.line}: {pipe.source}")
                for stage in pipe.stages:
                    merge = f"merge: {stage.merge}" if stage.merge else "no merge"
                    lines.append(
                        f"    [{stage.index}] {stage.text:<24} "
                        f"{stage.klass:<14} {merge}"
                    )
                    if stage.evidence:
                        lines.append(f"        — {stage.evidence}")
                    if stage.stream_type:
                        lines.append(f"        :: {stage.stream_type}")
                for split in pipe.splits:
                    stages = (
                        f"stage {split.begin}" if split.begin == split.end
                        else f"stages {split.begin}-{split.end}"
                    )
                    lines.append(
                        f"    split: {stages} data-parallel, merge with "
                        f"{split.merge!r} — {split.justification}"
                    )
                for note in pipe.notes:
                    lines.append(f"    note: {note}")
        if self.groups:
            lines.append("parallel groups ('&'-safe):")
            for group in self.groups:
                members = ",".join(map(str, group.commands))
                tag = "verified" if group.verified else "unverified"
                lines.append(f"  {{{members}}} [{tag}]: {group.justification}")
        if self.rejected:
            lines.append("rejected candidates:")
            for entry in self.rejected:
                members = ",".join(map(str, entry.get("commands", ())))
                lines.append(f"  {{{members}}}: {entry.get('reason', '?')}")
        if self.pinned:
            lines.append("pinned (never backgrounded):")
            for entry in self.pinned:
                lines.append(
                    f"  [{entry.get('command', '?')}] {entry.get('reason', '?')}"
                )
        lines.append(
            "schedule: "
            + (
                " | ".join(
                    "{" + ",".join(map(str, gen)) + "}" for gen in self.schedule
                )
                or "(empty)"
            )
        )
        if self.dependencies:
            lines.append("dependencies:")
            for dep in self.dependencies:
                lines.append(
                    f"  {dep.get('src')} -> {dep.get('dst')} "
                    f"[{dep.get('kind')} via {dep.get('via')}]"
                )
        else:
            lines.append("dependencies: none — all commands independent")
        if self.rewritten_script:
            lines.append("rewritten script:")
            for line in self.rewritten_script.splitlines():
                lines.append(f"  | {line}")
        summary = (
            f"{len(self.groups)} '&'-group(s), "
            f"{sum(len(p.splits) for p in self.pipelines)} split(s) across "
            f"{len(self.pipelines)} pipeline(s)"
        )
        lines.append(summary)
        return "\n".join(lines)
