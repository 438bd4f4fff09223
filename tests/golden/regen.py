"""Golden ``analyze(...).render()`` texts for the scripts the benchmark
runs, and golden ``build_plan(...).render()`` texts for some of them.

The goldens pin the analyzer's output byte for byte, so a change meant
to be a pure speed-up (a new kernel, a trimmed automaton) shows any
drift in a report as a failing test.  The renders (``renders/``) cover:

- the scripts in ``examples/scripts/``;
- every labelled ``corpus()`` script, analysed with its ``n_args``;
- the safe generator scripts of :data:`GENERATOR_SEEDS`, analysed with
  ``CampaignConfig().analyze_kwargs()``.

The plans (``plans/``) cover the examples and the corpus, each planned
under a ``BatchConfig`` of its analyze keywords.

Regenerate only when a change is meant to alter the reports::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Iterator, Tuple

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "scripts"
RENDERS = Path(__file__).resolve().parent / "renders"
PLANS = Path(__file__).resolve().parent / "plans"

#: the generator seeds ``perfbench/run.py`` analyses (its
#: ``GENERATOR_SEEDS``; a test keeps the two equal)
GENERATOR_SEEDS = (0, 1, 2, 4, 5, 6, 8, 9, 10, 11, 14, 15, 16, 18, 19)


def cases() -> Iterator[Tuple[str, str, dict]]:
    """``(label, source, analyze kwargs)`` for every golden script; the
    label is the golden file's path below ``renders/``, without ``.txt``."""
    from repro.analysis.corpus import corpus
    from repro.analysis.difftest.campaign import CampaignConfig
    from repro.analysis.difftest.gen import generate

    for path in sorted(EXAMPLES.glob("*.sh")):
        yield f"examples/{path.stem}", path.read_text(encoding="utf-8"), {}
    for script in corpus():
        yield f"corpus/{script.name}", script.source, {"n_args": script.n_args}
    kwargs = CampaignConfig().analyze_kwargs()
    for seed in GENERATOR_SEEDS:
        yield f"gen/seed{seed:02d}", generate(seed, safe=True), kwargs


def plan_cases() -> Iterator[Tuple[str, str, dict]]:
    """The :func:`cases` whose plan is pinned too: all but the seeds."""
    return (case for case in cases() if not case[0].startswith("gen/"))


def render(source: str, kwargs: dict) -> str:
    from repro.analysis import analyze

    return analyze(source, **kwargs).render()


def render_plan(source: str, kwargs: dict) -> str:
    from repro.analysis.optimize import build_plan
    from repro.analysis.pipeline import BatchConfig

    return build_plan(source, BatchConfig(**kwargs)).render()


def golden_path(label: str, root: Path = RENDERS) -> Path:
    return root / f"{label}.txt"


def main() -> int:
    for root, each, draw in ((RENDERS, cases, render), (PLANS, plan_cases, render_plan)):
        written = 0
        for label, source, kwargs in each():
            path = golden_path(label, root)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(draw(source, kwargs), encoding="utf-8")
            written += 1
        print(f"wrote {written} goldens under {root}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
