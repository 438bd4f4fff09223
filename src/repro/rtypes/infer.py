"""Pipeline stream-type inference and checking.

Given a pipeline ``c1 | c2 | ... | cn``, thread a stream type through
each stage's signature, collecting:

- **type errors** — a stage's input is not contained in its domain;
- **dead streams** — the composed language becomes empty (Fig. 5): the
  downstream consumer can never receive a line;
- **untyped stages** — no signature is available; inference degrades to
  ``any`` and the stage is reported as a monitoring candidate (§4).
"""

from __future__ import annotations

from enum import Enum, auto
from typing import List, Optional, Sequence

from ..records import Record
from .library import PRODUCES_ON_EMPTY, signature_for
from .signatures import Signature, TypeError_, apply_signature
from .types import StreamType


class StageIssueKind(Enum):
    TYPE_ERROR = auto()
    DEAD_STREAM = auto()
    UNTYPED = auto()


class StageIssue(Record):
    __slots__ = ("kind", "stage", "command", "message")

    def __init__(self, kind: StageIssueKind, stage: int, command: str, message: str):
        self.kind = kind
        self.stage = stage
        self.command = command
        self.message = message


class PipelineTypes(Record):
    """Result of typing a pipeline: per-stage output types and issues."""

    __slots__ = ("stage_types", "issues")

    def __init__(self, stage_types: List[StreamType], issues: Optional[List[StageIssue]] = None):
        self.stage_types = stage_types
        self.issues = [] if issues is None else issues

    @property
    def output(self) -> StreamType:
        return self.stage_types[-1] if self.stage_types else StreamType.any()

    @property
    def output_dead(self) -> bool:
        return self.output.is_dead()

    def errors(self) -> List[StageIssue]:
        return [i for i in self.issues if i.kind is StageIssueKind.TYPE_ERROR]

    def dead_stages(self) -> List[StageIssue]:
        return [i for i in self.issues if i.kind is StageIssueKind.DEAD_STREAM]

    def untyped_stages(self) -> List[StageIssue]:
        return [i for i in self.issues if i.kind is StageIssueKind.UNTYPED]


def check_pipeline(
    argvs: Sequence[Sequence[str]],
    input_type: Optional[StreamType] = None,
    signatures: Optional[Sequence[Optional[Signature]]] = None,
) -> PipelineTypes:
    """Type-check a pipeline given each stage's argv.

    ``signatures`` overrides signature lookup per stage (annotations).
    """
    current = input_type if input_type is not None else StreamType.any()
    stage_types: List[StreamType] = []
    issues: List[StageIssue] = []

    for idx, argv in enumerate(argvs):
        name = argv[0] if argv else "<empty>"
        display = " ".join(argv)
        sig = None
        if signatures is not None and idx < len(signatures):
            sig = signatures[idx]
        if sig is None:
            sig = signature_for(argv)

        if sig is None:
            issues.append(
                StageIssue(
                    StageIssueKind.UNTYPED,
                    idx,
                    display,
                    f"no type available for {display!r}; consider a "
                    "`# @type` annotation or runtime monitoring",
                )
            )
            current = StreamType.any()
            stage_types.append(current)
            continue

        if current.is_dead() and name not in PRODUCES_ON_EMPTY:
            # dead input propagates through pure stream transformers
            current = StreamType.dead()
            stage_types.append(current)
            continue

        try:
            current = apply_signature(sig, current)
        except TypeError_ as exc:
            issues.append(
                StageIssue(StageIssueKind.TYPE_ERROR, idx, display, str(exc))
            )
            current = StreamType.any()
            stage_types.append(current)
            continue

        if current.is_dead():
            issues.append(
                StageIssue(
                    StageIssueKind.DEAD_STREAM,
                    idx,
                    display,
                    f"the output of {display!r} is the empty language: no "
                    "line of its input can pass this stage",
                )
            )
        stage_types.append(current)

    return PipelineTypes(stage_types, issues)
