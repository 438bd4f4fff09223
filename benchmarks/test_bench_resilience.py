"""E-resilience: the budget machinery is near-free when unused, cheap
when armed, and hard-bounds wall clock on pathological input.

Three guards anchor the resilience layer:

1. **Happy-path overhead** — analyzing a normal corpus under a generous
   budget must cost about the same as analyzing it unbudgeted (the
   budget hot path is one int increment + a strided clock sample).
2. **Deadline enforcement** — a script whose symbolic execution is
   pathologically expensive (glob-heavy loops forcing automaton work on
   every step) must return within a small multiple of its deadline,
   degraded but renderable.
3. **Depth-bomb immunity** — kilodeep nesting returns a degraded report
   quickly instead of a ``RecursionError``.
"""

import time

from conftest import emit

from repro.analysis import analyze
from repro.budget import ResourceBudget

REPS = 5

NORMAL = "\n".join(
    f'if [ -f "/srv/part{i}" ]; then rm "/srv/part{i}"; else mkdir -p /srv; fi'
    for i in range(12)
)

# glob-heavy loop nest: per-step automaton work makes raw step budgets a
# poor clock proxy, which is exactly what the deadline is for
PATHOLOGICAL = (
    "while [ -e log-*.txt ]; do\n"
    "case $x in\n"
    "  a|b) sed file.txt file.txt 2>&1 ;;\n"
    "  *.txt) cp $(basename $0) file.txt data < file.txt ;;\n"
    "esac\n"
    "done\n"
) * 10


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_budget_overhead_on_happy_path():
    analyze(NORMAL)  # warm up imports and spec registry

    _, plain = _timed(lambda: [analyze(NORMAL) for _ in range(REPS)])
    budget = ResourceBudget(deadline=60.0, max_states=10**6)
    budgeted_reports, budgeted = _timed(
        lambda: [analyze(NORMAL, budget=budget) for _ in range(REPS)]
    )

    assert not any(r.degraded for r in budgeted_reports)
    emit(
        "E-resilience (budget overhead, happy path)",
        [
            f"unbudgeted: {plain / REPS * 1e3:.1f}ms/run",
            f"budgeted:   {budgeted / REPS * 1e3:.1f}ms/run "
            f"({budgeted / max(plain, 1e-9):.2f}x)",
        ],
    )
    # generous bound: the point is catching an accidentally quadratic
    # check, not winning a microbenchmark
    assert budgeted < plain * 2 + 0.05, (
        f"budget checks cost {budgeted * 1e3:.0f}ms vs {plain * 1e3:.0f}ms "
        "unbudgeted — the hot path got expensive"
    )


def test_deadline_bounds_pathological_wall_clock():
    deadline = 0.25
    report, elapsed = _timed(
        lambda: analyze(PATHOLOGICAL, budget=ResourceBudget(deadline=deadline))
    )
    emit(
        "E-resilience (deadline enforcement)",
        [
            f"deadline: {deadline * 1e3:.0f}ms",
            f"returned after: {elapsed * 1e3:.0f}ms "
            f"({'degraded' if report.degraded else 'completed'})",
        ],
    )
    report.render()
    # an order of magnitude of slack over the deadline for slow CI boxes;
    # unbudgeted, this script runs for minutes
    assert elapsed < deadline * 10 + 1.0, (
        f"deadline {deadline}s but analysis held the CPU for {elapsed:.1f}s"
    )


def test_depth_bomb_returns_quickly():
    bomb = "$(" * 400 + "echo hi" + ")" * 400
    report, elapsed = _timed(lambda: analyze(bomb))
    emit(
        "E-resilience (depth bomb)",
        [f"2x400 nesting: {elapsed * 1e3:.1f}ms, degraded={report.degraded}"],
    )
    assert report.degraded
    assert elapsed < 2.0
