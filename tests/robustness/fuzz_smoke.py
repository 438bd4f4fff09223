"""The CI fuzz-smoke harness: generated scripts through the analyzer.

Asserts the resilience invariant — *``analyze()`` never raises and
always returns a renderable report* — over a fixed, seed-determined
corpus.  No wall-clock deadline is used, so the reports themselves are
deterministic too.

Runnable standalone (what the ``fuzz-smoke`` CI job does)::

    PYTHONPATH=src python tests/robustness/fuzz_smoke.py --iterations 300

Exit code 0 when every seed upholds the invariant, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Tuple

try:
    from .script_gen import generate
except ImportError:  # run as a script, not a package member
    from script_gen import generate

from repro.analysis import Report, analyze
from repro.budget import ResourceBudget


def smoke_budget() -> ResourceBudget:
    """Per-seed limits: generated scripts lean on globs and loops whose
    per-step automaton work is expensive, so the wall-clock deadline is
    what keeps total harness time bounded; the state/DFA caps catch
    state-space bugs even on fast machines."""
    return ResourceBudget(deadline=0.25, max_states=5_000, max_dfa_states=20_000)


def check_seed(seed: int) -> Tuple[bool, str, "Report"]:
    """Run one seed; (ok, failure description, report-or-None)."""
    source = generate(seed)
    try:
        report = analyze(
            source,
            include_lint=(seed % 3 == 0),
            budget=smoke_budget(),
        )
    except BaseException:
        return False, f"seed {seed}: analyze() raised\n{traceback.format_exc()}", None
    if not isinstance(report, Report):
        return False, f"seed {seed}: analyze() returned {type(report).__name__}", None
    try:
        rendered = report.render()
    except BaseException:
        return False, f"seed {seed}: render() raised\n{traceback.format_exc()}", report
    if not isinstance(rendered, str) or not rendered:
        return False, f"seed {seed}: unrenderable report", report
    return True, "", report


def run(iterations: int, verbose: bool = False) -> List[str]:
    """All failure descriptions over ``iterations`` seeds (empty = pass)."""
    failures: List[str] = []
    degraded = syntax_errors = 0
    for seed in range(iterations):
        ok, failure, report = check_seed(seed)
        if not ok:
            failures.append(failure)
            continue
        if report.degraded:
            degraded += 1
        if report.has("syntax-error"):
            syntax_errors += 1
    if verbose:
        print(
            f"fuzz-smoke: {iterations} seed(s), {syntax_errors} syntax-error "
            f"report(s), {degraded} degraded, {len(failures)} invariant "
            f"violation(s)"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=300)
    options = parser.parse_args(argv)
    failures = run(options.iterations, verbose=True)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
