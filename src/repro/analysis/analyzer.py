"""The end-to-end analyzer: parse → annotations → symbolic execution →
checkers → report.  The public entry point of the library.

Resilience invariant (enforced by the fault-injection suite under
``tests/robustness/``): :func:`analyze` **never raises** and always
returns a renderable :class:`Report`.  Resource-budget exhaustion
(deadline, state cap, DFA cap, nesting depth) becomes a *partial*
report carrying an INFO ``analysis-degraded`` diagnostic; any other
internal crash becomes an ``internal-error`` diagnostic with an
exception digest.  Degraded reports are never cached.
"""

from __future__ import annotations

import re
from typing import List, Optional, Sequence, Tuple

from ..budget import AnalysisBudgetExceeded, ResourceBudget, use_budget
from ..checkers import Checker, default_checkers
from ..diag import (
    Diagnostic,
    Severity,
    dedupe,
    degraded_diagnostic,
    internal_error_diagnostic,
)
from ..obs import get_recorder
from ..shell import parse as parse_shell
from ..shell.ast import Command
from ..shell.lexer import ShellSyntaxError
from ..shell.parser import ParseDepthExceeded
from ..symex import Engine, SymState
from .report import Report

#: what every annotation directive holds (``# @var``, ``#@args``, ...):
#: a source without it has none, and the annotation parser never loads
_DIRECTIVE = re.compile(r"#\s*@")


def run_lint(source: str) -> List[Diagnostic]:
    """The syntactic baseline ``include_lint`` merges in; its rules load
    on first use, so an analysis without it never imports them."""
    from ..lint import lint

    return lint(source)


def start_run(
    source: str,
    n_args: Optional[int] = None,
    args: Optional[Sequence[str]] = None,
    platform_targets: Optional[Sequence[str]] = None,
    checkers: Optional[List[Checker]] = None,
    annotation_files: Optional[Sequence[str]] = None,
    max_fork: int = 64,
    max_loop: int = 2,
    races: bool = True,
) -> Tuple[Engine, Command, SymState]:
    """How a symbolic run of ``source`` starts, for :func:`analyze` and
    the dependence walk alike: ``(engine, ast, entry state)``.

    - ``n_args``: how many positional arguments to model symbolically;
      ``None`` models argv as *unknown at entry*, an unconstrained list
      with a symbolic ``$#``; ``args``, concrete values, win over it.
    - ``platform_targets``: deployment platforms for portability checks.
    - ``races``: run the effect-graph hazard analysis (file-system races
      over ``&``/``wait``); ignored when ``checkers`` is given.

    The script's annotations, after ``annotation_files``'s, override
    ``n_args`` (``# @args N``) and ``platform_targets`` (``# @platforms``),
    constrain the entry environment (``# @var``) and stream signatures
    (``# @type``).  Raises the parser's syntax and depth errors.
    """
    signatures = variables = None
    if annotation_files or _DIRECTIVE.search(source):
        from .annotations import load_annotation_file, merge_annotations, parse_annotations

        annotations = parse_annotations(source)
        if annotation_files:
            external = [load_annotation_file(path) for path in annotation_files]
            annotations = merge_annotations(*external, annotations)
        if annotations.n_args is not None:
            n_args = annotations.n_args
        if annotations.platforms:
            platform_targets = annotations.platforms
        signatures, variables = annotations.signatures, annotations.variables
    ast = parse_shell(source)
    if checkers is None:
        checkers = default_checkers(platform_targets=platform_targets, races=races)
    engine = Engine(
        checkers=checkers,
        max_fork=max_fork,
        max_loop=max_loop,
        signature_overrides=signatures,
        initial_env=variables,
    )
    return engine, ast, engine.initial_state(n_args=n_args, args=args)


def analyze(
    source: str,
    n_args: Optional[int] = None,
    args: Optional[Sequence[str]] = None,
    platform_targets: Optional[Sequence[str]] = None,
    checkers: Optional[List[Checker]] = None,
    include_lint: bool = False,
    annotation_files: Optional[Sequence[str]] = None,
    max_fork: int = 64,
    max_loop: int = 2,
    races: bool = True,
    budget: Optional[ResourceBudget] = None,
) -> Report:
    """Statically analyze a shell script.

    The run starts as :func:`start_run` says, which documents the run
    options.  ``include_lint`` additionally runs the syntactic baseline
    and merges its findings (tagged ``source="lint"``); ``budget`` bounds
    the analysis (wall-clock deadline, symbolic-state cap, DFA cap), and
    exhausting it degrades the report instead of raising.

    The batch driver, the cache and the daemon pass these options from
    one :class:`~repro.analysis.pipeline.BatchConfig`, whose fields are
    named after them.  Never raises: crashes and budget exhaustion
    degrade to diagnostics.
    """
    recorder = get_recorder()
    try:
        if budget is not None:
            budget.start()  # fresh deadline + state meter per file
        with recorder.span("analyze.parse"):
            try:
                engine, ast, entry = start_run(
                    source, n_args=n_args, args=args, platform_targets=platform_targets,
                    checkers=checkers, annotation_files=annotation_files,
                    max_fork=max_fork, max_loop=max_loop, races=races,
                )
            except ParseDepthExceeded as exc:
                recorder.count("analyze.degraded")
                trip = AnalysisBudgetExceeded("parse", "depth", str(exc))
                return Report(
                    source=source,
                    diagnostics=[degraded_diagnostic(trip, "nothing analyzed")],
                )
            except ShellSyntaxError as exc:
                recorder.count("analyze.syntax_errors")
                return Report(
                    source=source,
                    diagnostics=[
                        Diagnostic(
                            code="syntax-error",
                            message=str(exc),
                            severity=Severity.ERROR,
                            pos=exc.pos,
                            always=True,
                        )
                    ],
                )

        diagnostics: List[Diagnostic] = []
        states = 0
        try:
            with recorder.span("analyze.symex"), use_budget(budget):
                result = engine.run(ast, entry)
        except AnalysisBudgetExceeded as exc:
            recorder.count("analyze.degraded")
            diagnostics.append(
                degraded_diagnostic(
                    exc,
                    f"{engine.paths_explored} path step(s) analyzed before the limit",
                )
            )
        else:
            diagnostics.extend(result.diagnostics)
            states = len(result.states)

        if include_lint:
            # the syntactic baseline is independent of the semantic phases:
            # run it even for degraded analyses, and isolate its crashes
            with recorder.span("analyze.lint"):
                try:
                    diagnostics.extend(run_lint(source))
                except Exception as exc:  # noqa: BLE001
                    recorder.count("analyze.internal_errors")
                    diagnostics.append(internal_error_diagnostic("lint", exc))

        return Report(
            source=source,
            diagnostics=dedupe(diagnostics),
            # the engine's counters, also of a run the budget cut short
            paths_explored=engine.paths_explored,
            paths_merged=engine.paths_merged,
            states=states,
            truncations=engine.truncations,
        )
    except AnalysisBudgetExceeded as exc:
        # a budget trip outside the per-phase guards (defensive belt)
        recorder.count("analyze.degraded")
        return Report(
            source=source,
            diagnostics=[degraded_diagnostic(exc, "no partial results available")],
        )
    except Exception as exc:  # noqa: BLE001 — the crash-isolation boundary
        recorder.count("analyze.internal_errors")
        return Report(
            source=source,
            diagnostics=[internal_error_diagnostic("analysis", exc)],
        )

