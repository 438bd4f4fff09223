"""Stream-content criteria: dead filters, type mismatches, untyped gaps.

Covers the Fig. 5 class of bug (a filter whose intersection with its
input's type is the empty language) and the §4 polymorphic-type checks.
"""

from __future__ import annotations

from ..diag import Diagnostic, Severity
from ..shell.ast import Case, CaseItem, Pipeline
from .base import Checker


class StreamTypeChecker(Checker):
    name = "stream-types"

    def on_pipeline(self, state, node: Pipeline, issues) -> None:
        from ..rtypes.infer import StageIssueKind  # loaded by the engine's check

        for issue in issues:
            if issue.kind is StageIssueKind.DEAD_STREAM:
                state.warn(
                    Diagnostic(
                        code="dead-stream",
                        message=issue.message,
                        severity=Severity.ERROR,
                        pos=node.pos,
                        always=True,
                        source="types",
                    )
                )
            elif issue.kind is StageIssueKind.TYPE_ERROR:
                state.warn(
                    Diagnostic(
                        code="stream-type-error",
                        message=issue.message,
                        severity=Severity.WARNING,
                        pos=node.pos,
                        source="types",
                    )
                )
            elif issue.kind is StageIssueKind.UNTYPED:
                state.warn(
                    Diagnostic(
                        code="untyped-command",
                        message=issue.message,
                        severity=Severity.INFO,
                        pos=node.pos,
                        source="types",
                    )
                )


class DeadCaseChecker(Checker):
    """A `case` arm whose pattern cannot match any possible subject."""

    name = "dead-case"

    def on_case_arm(
        self, state, node: Case, item: CaseItem, feasible: bool, static_pattern: bool
    ) -> None:
        if feasible or not static_pattern:
            return
        patterns = " | ".join(w.raw for w in item.patterns)
        state.warn(
            Diagnostic(
                code="dead-case-branch",
                message=(
                    f"case pattern {patterns!r} can never match the subject; "
                    "this arm is dead"
                ),
                severity=Severity.WARNING,
                pos=node.pos,
                always=True,
                source="types",
            )
        )


class AlwaysFailsChecker(Checker):
    """§4: a command whose success preconditions contradict established
    file-system facts (e.g. `cat $1/config` after `rm -fr $1`)."""

    name = "always-fails"

    def on_always_fails(self, state, node, reason: str) -> None:
        name = node.name or "<command>"
        state.warn(
            Diagnostic(
                code="always-fails",
                message=f"{name} can never succeed here: {reason}",
                severity=Severity.ERROR,
                pos=node.pos,
                always=True,
            )
        )
