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

from typing import List, Optional, Sequence

from ..checkers import Checker, default_checkers
from ..diag import Diagnostic, Severity, dedupe
from ..lint import lint as run_lint
from ..obs import get_recorder
from ..shell import parse as parse_shell
from ..shell.lexer import ShellSyntaxError
from ..shell.parser import ParseDepthExceeded
from ..symex import Engine
from .annotations import load_annotation_file, merge_annotations, parse_annotations
from .report import Report
from .resilience import (
    AnalysisBudgetExceeded,
    ResourceBudget,
    degraded_diagnostic,
    internal_error_diagnostic,
    use_budget,
)


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
    prune: bool = True,
    races: bool = True,
    budget: Optional[ResourceBudget] = None,
) -> Report:
    """Statically analyze a shell script.

    - ``n_args``: how many positional arguments to model symbolically;
      ``None`` (the default) models argv as *unknown at entry* — an
      unconstrained list with a symbolic ``$#`` (overridden by a
      ``# @args N`` annotation).
    - ``args``: concrete argument values (``repro-analyze --args a b``);
      takes precedence over ``n_args``.
    - ``platform_targets``: deployment platforms for portability checks
      (overridden by ``# @platforms ...``).
    - ``include_lint``: additionally run the syntactic baseline and merge
      its findings (tagged ``source="lint"``).
    - ``races``: run the effect-graph hazard analysis (file-system races
      over ``&``/``wait``); ignored when ``checkers`` is given explicitly.
    - ``budget``: resource limits for this analysis (wall-clock deadline,
      symbolic-state cap, DFA cap); exhaustion degrades the report
      instead of raising.

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
            annotations = parse_annotations(source)
            if annotation_files:
                external = [load_annotation_file(path) for path in annotation_files]
                annotations = merge_annotations(*external, annotations)
            if annotations.n_args is not None:
                n_args = annotations.n_args
            if annotations.platforms:
                platform_targets = annotations.platforms
            try:
                ast = parse_shell(source)
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
        if checkers is None:
            checkers = default_checkers(platform_targets=platform_targets, races=races)
        engine = Engine(
            checkers=checkers,
            max_fork=max_fork,
            max_loop=max_loop,
            prune=prune,
            signature_overrides=annotations.signatures,
            initial_env=annotations.variables,
        )

        diagnostics: List[Diagnostic] = []
        paths_explored = paths_merged = states = truncations = 0
        try:
            with recorder.span("analyze.symex"), use_budget(budget):
                result = engine.run(ast, n_args=n_args, args=args)
        except AnalysisBudgetExceeded as exc:
            recorder.count("analyze.degraded")
            diagnostics.append(
                degraded_diagnostic(
                    exc,
                    f"{engine.paths_explored} path step(s) analyzed before the limit",
                )
            )
            paths_explored = engine.paths_explored
            paths_merged = engine.paths_merged
            truncations = engine.truncations
        else:
            diagnostics.extend(result.diagnostics)
            paths_explored = result.paths_explored
            paths_merged = result.paths_merged
            states = len(result.states)
            truncations = result.truncations

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
            paths_explored=paths_explored,
            paths_merged=paths_merged,
            states=states,
            truncations=truncations,
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

