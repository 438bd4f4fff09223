"""Resource budgets and crash isolation for the analysis pipeline.

The ahead-of-time framing only works if the analyzer is *always safe to
run*: a pre-command analysis that hangs, blows the stack, or crashes on
one pathological script is worse than no analysis at all (cf. Bagnara
et al. on resource-bounded static analyzers, and ShellFuzzer's crash
corpora for shell tooling).  This module makes termination and crash
containment enforced properties rather than hopes:

- :class:`ResourceBudget` — a wall-clock deadline plus caps on symbolic
  states and DFA construction size, threaded through the hot layers
  (``symex.engine``, ``rlang.ops``/``rlang.dfa``).  Exhaustion raises
  the single exception type :class:`AnalysisBudgetExceeded`, which the
  analyzer converts into a *partial* report carrying an
  ``analysis-degraded`` diagnostic — never an uncaught exception.  The
  parser's nesting cap (``shell.parser.MAX_NESTING_DEPTH``) is fixed
  and degrades the report the same way.
- the active budget (:func:`get_budget` / :func:`use_budget`), scoped
  to the calling thread like the observability recorder, so lower
  layers that cannot take a budget parameter (the engine, DFA products
  deep inside expansions) still honour the caps.
- :class:`GuardedChecker` — per-checker fault isolation: a crashing
  checker yields an ``internal-error`` diagnostic with an exception
  digest and is disabled for the rest of the run, instead of aborting
  the file.

Budget trips are counted under ``budget.*`` (``budget.deadline``,
``budget.states``, ``budget.dfa_states``); checker crashes under
``checker.faults``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager
from typing import List, Optional, Sequence

from ..diag import Diagnostic, Severity
from ..obs import get_recorder

#: Unconditional ceiling on DFA product/determinisation size, enforced
#: even outside any budgeted analysis so pathological regex
#: intersections cannot allocate unboundedly (each state row holds one
#: int per alphabet atom).  Orders of magnitude above anything the
#: analyzer builds for real scripts.
HARD_DFA_STATE_CAP = 100_000


class AnalysisBudgetExceeded(Exception):
    """A resource budget ran out mid-analysis.

    Carries enough context for the analyzer to report *which* phase and
    *which* budget degraded the result, and how much work was done.
    """

    def __init__(self, phase: str, budget: str, detail: str = ""):
        self.phase = phase          # "parse" | "symex" | "rlang" | ...
        self.budget = budget        # "deadline" | "states" | "dfa-states" | "depth"
        self.detail = detail
        message = f"{budget} budget exhausted during {phase}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class ResourceBudget:
    """Per-analysis resource limits.  All limits are optional; ``None``
    means unlimited.  A budget is (re)armed by :meth:`start` — the
    analyzer calls it at the top of every ``analyze()`` so one budget
    object can be reused across files (each file gets a fresh deadline
    and state meter).
    """

    #: deadline checks sample the monotonic clock once per this many
    #: state charges, keeping the per-eval cost to one int compare
    DEADLINE_STRIDE = 32

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_states: Optional[int] = None,
        max_dfa_states: Optional[int] = None,
    ):
        self.deadline = deadline
        self.max_states = max_states
        self.max_dfa_states = max_dfa_states
        self.start()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ResourceBudget":
        """Arm (or re-arm) the deadline and reset consumption meters."""
        self._t0 = time.monotonic()
        self._expires = (
            self._t0 + self.deadline if self.deadline is not None else None
        )
        self.states_used = 0
        return self

    def elapsed(self) -> float:
        return time.monotonic() - self._t0

    # -- checks (raise AnalysisBudgetExceeded) ------------------------------

    def _trip(self, phase: str, budget: str, detail: str) -> None:
        get_recorder().count(f"budget.{budget.replace('-', '_')}")
        raise AnalysisBudgetExceeded(phase, budget, detail)

    def check_deadline(self, phase: str) -> None:
        if self._expires is not None and time.monotonic() > self._expires:
            self._trip(
                phase,
                "deadline",
                f"{self.deadline:g}s wall-clock limit reached",
            )

    def charge_state(self, phase: str = "symex") -> None:
        """Account one symbolic evaluation step; the hot-path check."""
        self.states_used += 1
        if self.max_states is not None and self.states_used > self.max_states:
            self._trip(
                phase, "states", f"more than {self.max_states} evaluation steps"
            )
        if self._expires is not None and self.states_used % self.DEADLINE_STRIDE == 0:
            self.check_deadline(phase)

    def check_dfa_states(self, n: int, phase: str = "rlang") -> None:
        if self.max_dfa_states is not None and n > self.max_dfa_states:
            self._trip(
                phase,
                "dfa-states",
                f"automaton construction exceeded {self.max_dfa_states} states",
            )

    # -- derived budgets ----------------------------------------------------

    def tightened(self, factor: float = 0.5) -> "ResourceBudget":
        """A strictly smaller budget for a retry after a crash or
        exhaustion.  Unset limits acquire conservative defaults so a
        retry is *always* bounded even when the original run was not."""

        def shrink(value, default):
            return default if value is None else max(1, type(value)(value * factor))

        return ResourceBudget(
            deadline=shrink(self.deadline, 10.0),
            max_states=shrink(self.max_states, 50_000),
            max_dfa_states=shrink(self.max_dfa_states, HARD_DFA_STATE_CAP // 2),
        )

    def __repr__(self) -> str:
        parts = []
        for name in ("deadline", "max_states", "max_dfa_states"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return f"ResourceBudget({', '.join(parts)})"


# ---------------------------------------------------------------------------
# The active budget (mirrors obs.get_recorder: layers too deep to take a
# budget parameter look it up here; None means unlimited).  It is
# thread-local: the analysis server runs concurrent requests, each under
# its own budget, on handler threads of one process.
# ---------------------------------------------------------------------------

_tls = threading.local()


def get_budget() -> Optional[ResourceBudget]:
    """The budget governing the current thread's analysis, or None."""
    return getattr(_tls, "budget", None)


@contextmanager
def use_budget(budget: Optional[ResourceBudget]):
    """Install ``budget`` for the calling thread; the previous budget is
    restored on exit."""
    previous = getattr(_tls, "budget", None)
    _tls.budget = budget
    try:
        yield budget
    finally:
        _tls.budget = previous


def enforce_dfa_cap(n_states: int, phase: str = "rlang") -> None:
    """Called by DFA constructions as they grow: enforces the active
    budget's cap *and* the unconditional :data:`HARD_DFA_STATE_CAP`."""
    if n_states > HARD_DFA_STATE_CAP:
        get_recorder().count("budget.dfa_states")
        raise AnalysisBudgetExceeded(
            phase,
            "dfa-states",
            f"automaton construction exceeded the hard cap of "
            f"{HARD_DFA_STATE_CAP} states",
        )
    budget = getattr(_tls, "budget", None)
    if budget is not None:
        budget.check_dfa_states(n_states, phase)
        # automaton blowups can spend seconds inside one symbolic step,
        # between the engine's own deadline checks — sample the clock
        # here too so wall-clock budgets stay responsive
        budget.check_deadline(phase)


# ---------------------------------------------------------------------------
# Crash isolation
# ---------------------------------------------------------------------------


def exception_digest(exc: BaseException) -> str:
    """A short, stable identifier for an exception (type + message),
    suitable for grouping crash reports without leaking full tracebacks
    into diagnostics."""
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


def degraded_diagnostic(exc: AnalysisBudgetExceeded, analyzed: str) -> Diagnostic:
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


class GuardedChecker:
    """Fault-isolation proxy around one checker.

    Every hook delegates to the wrapped checker inside a try/except: on
    the first crash the checker is disabled for the rest of the run and
    an ``internal-error`` diagnostic (with an exception digest) is
    attached to the current state, so one buggy criterion can never
    abort the whole file.  Budget exhaustion is *not* a fault and
    propagates untouched.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = getattr(inner, "name", type(inner).__name__)
        self.disabled = False
        self.fault: Optional[BaseException] = None

    def _guard(self, sink, method: str, *args) -> List[Diagnostic]:
        """Run one hook; ``sink`` is anything with ``.warn`` (a SymState
        or the engine's diagnostic sink), or None for ``finish``."""
        if self.disabled:
            return []
        try:
            result = getattr(self.inner, method)(*args)
            return result if result is not None else []
        except AnalysisBudgetExceeded:
            raise
        except Exception as exc:  # noqa: BLE001 — isolation is the point
            self.disabled = True
            self.fault = exc
            get_recorder().count("checker.faults")
            diagnostic = internal_error_diagnostic(
                f"checker {self.name!r} ({method})", exc
            )
            if sink is not None:
                sink.warn(diagnostic)
                return []
            return [diagnostic]

    # -- Checker hooks ------------------------------------------------------

    def on_command(self, state, node, argv, spec) -> None:
        self._guard(state, "on_command", state, node, argv, spec)

    def on_delete(self, state, node, operand, recursive) -> None:
        self._guard(state, "on_delete", state, node, operand, recursive)

    def on_case_arm(self, state, node, item, feasible, static_pattern) -> None:
        self._guard(state, "on_case_arm", state, node, item, feasible, static_pattern)

    def on_always_fails(self, state, node, reason) -> None:
        self._guard(state, "on_always_fails", state, node, reason)

    def on_pipeline(self, state, node, issues) -> None:
        self._guard(state, "on_pipeline", state, node, issues)

    def finish(self, states) -> List[Diagnostic]:
        return self._guard(None, "finish", states)


def guard_checkers(checkers: Sequence) -> List[GuardedChecker]:
    """Wrap each checker in a :class:`GuardedChecker` (idempotent)."""
    return [
        checker if isinstance(checker, GuardedChecker) else GuardedChecker(checker)
        for checker in checkers
    ]
