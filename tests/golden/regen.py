"""Golden ``analyze(...).render()`` texts for the scripts the benchmark runs.

The goldens pin the analyzer's output byte for byte, so a change meant
to be a pure speed-up (a new kernel, a trimmed automaton) shows any
drift in a report as a failing test.  They cover:

- the scripts in ``examples/scripts/``;
- every labelled ``corpus()`` script, analysed with its ``n_args``;
- the safe generator scripts of :data:`GENERATOR_SEEDS`, analysed with
  ``CampaignConfig().analyze_kwargs()``.

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


def render(source: str, kwargs: dict) -> str:
    from repro.analysis import analyze

    return analyze(source, **kwargs).render()


def golden_path(label: str) -> Path:
    return RENDERS / f"{label}.txt"


def main() -> int:
    written = 0
    for label, source, kwargs in cases():
        path = golden_path(label)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(source, kwargs), encoding="utf-8")
        written += 1
    print(f"wrote {written} goldens under {RENDERS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
