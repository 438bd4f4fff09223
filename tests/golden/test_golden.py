"""Every golden script must render, and plan, byte for byte as its
committed golden, and parse to its committed digest (see ``regen.py``
for what is covered and how to regenerate)."""

import ast
import re

import pytest

from tests.golden.regen import (
    GENERATOR_SEEDS,
    PARSES,
    PLANS,
    RENDERS,
    ROOT,
    cases,
    golden_path,
    parse_lines,
    plan_cases,
    render,
    render_plan,
)

CASES = list(cases())
PLAN_CASES = list(plan_cases())


@pytest.mark.parametrize("label,source,kwargs", CASES, ids=[c[0] for c in CASES])
def test_render_matches_golden(label, source, kwargs):
    expected = golden_path(label).read_text(encoding="utf-8")
    assert render(source, kwargs) == expected


@pytest.mark.parametrize("label,source,kwargs", PLAN_CASES, ids=[c[0] for c in PLAN_CASES])
def test_plan_matches_golden(label, source, kwargs):
    expected = golden_path(label, PLANS).read_text(encoding="utf-8")
    assert render_plan(source, kwargs) == expected


def test_parse_digests_match_golden():
    expected = dict(line.rsplit(" ", 1) for line in PARSES.read_text(encoding="utf-8").splitlines())
    actual = dict(line.rsplit(" ", 1) for line in parse_lines())
    assert actual.keys() == expected.keys()
    differ = [label for label, digest in actual.items() if expected[label] != digest]
    assert not differ, f"{len(differ)} parses differ: {differ[:20]}"


def _stored(root):
    return {path.relative_to(root).with_suffix("").as_posix() for path in root.rglob("*.txt")}


def test_every_golden_file_has_a_case():
    assert _stored(RENDERS) == {label for label, _, _ in CASES}


def test_every_golden_plan_has_a_case():
    assert _stored(PLANS) == {label for label, _, _ in PLAN_CASES}


def test_generator_seeds_match_the_benchmark():
    text = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    match = re.search(r"^GENERATOR_SEEDS = (\(.*\))$", text, re.MULTILINE)
    assert match, "perfbench/run.py no longer defines GENERATOR_SEEDS"
    assert ast.literal_eval(match.group(1)) == GENERATOR_SEEDS
