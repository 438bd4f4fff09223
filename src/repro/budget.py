"""Resource budgets: the bound on every layer of the analysis.

The ahead-of-time framing only works if the analyzer is *always safe to
run*: a pre-command analysis that hangs or blows up on one pathological
script is worse than no analysis at all (cf. Bagnara et al. on
resource-bounded static analyzers).  This bottom-layer module makes
termination an enforced property rather than a hope:

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
- :func:`enforce_dfa_cap` and :data:`HARD_DFA_STATE_CAP`, which bound
  every automaton construction, budgeted or not.

It depends on :mod:`repro.obs` alone, so every layer it bounds imports
it at module top.  Budget trips are counted under ``budget.*``
(``budget.deadline``, ``budget.states``, ``budget.dfa_states``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Optional

from .obs import get_recorder

#: Unconditional ceiling on DFA product/determinisation size, enforced
#: even outside any budgeted analysis so pathological regex
#: intersections cannot allocate unboundedly (each state row holds one
#: int per alphabet atom).  Orders of magnitude above anything the
#: analyzer builds for real scripts (see the ``rlang.product_states``
#: histogram).
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


def dfa_state_cap() -> int:
    """The most states a construction may reach on this thread without
    tripping :func:`enforce_dfa_cap`."""
    budget = getattr(_tls, "budget", None)
    if budget is None or budget.max_dfa_states is None:
        return HARD_DFA_STATE_CAP
    return min(HARD_DFA_STATE_CAP, budget.max_dfa_states)


def enforce_dfa_cap(n_states: int, phase: str = "rlang") -> None:
    """Called by DFA constructions as they grow: enforces
    :func:`dfa_state_cap`, the active budget's cap *and* the
    unconditional :data:`HARD_DFA_STATE_CAP`."""
    budget = getattr(_tls, "budget", None)
    if n_states > dfa_state_cap():
        if n_states <= HARD_DFA_STATE_CAP:
            # the budget's cap is the tighter one: it trips
            budget.check_dfa_states(n_states, phase)
        get_recorder().count("budget.dfa_states")
        raise AnalysisBudgetExceeded(
            phase,
            "dfa-states",
            f"automaton construction exceeded the hard cap of "
            f"{HARD_DFA_STATE_CAP} states",
        )
    if budget is not None:
        # automaton blowups can spend seconds inside one symbolic step,
        # between the engine's own deadline checks — sample the clock
        # here too so wall-clock budgets stay responsive
        budget.check_deadline(phase)
