"""Every golden script must render byte for byte as its committed golden
(see ``regen.py`` for what is covered and how to regenerate)."""

import ast
import re

import pytest

from tests.golden.regen import GENERATOR_SEEDS, RENDERS, ROOT, cases, golden_path, render

CASES = list(cases())


@pytest.mark.parametrize("label,source,kwargs", CASES, ids=[c[0] for c in CASES])
def test_render_matches_golden(label, source, kwargs):
    expected = golden_path(label).read_text(encoding="utf-8")
    assert render(source, kwargs) == expected


def test_every_golden_file_has_a_case():
    labels = {label for label, _, _ in CASES}
    stored = {path.relative_to(RENDERS).with_suffix("").as_posix()
              for path in RENDERS.rglob("*.txt")}
    assert stored == labels


def test_generator_seeds_match_the_benchmark():
    text = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    match = re.search(r"^GENERATOR_SEEDS = (\(.*\))$", text, re.MULTILINE)
    assert match, "perfbench/run.py no longer defines GENERATOR_SEEDS"
    assert ast.literal_eval(match.group(1)) == GENERATOR_SEEDS
