"""A spec clause whose precondition *or effect* contradicts the path's
file-system facts is infeasible on that path: the command takes its
other clauses, and the run goes on."""

import json

import pytest

from repro.analysis import analyze
from repro.analysis.difftest.campaign import CampaignConfig
from repro.analysis.difftest.gen import generate
from repro.analysis.optimize import build_plan
from repro.symex import Engine


def test_copying_under_a_removed_parent_takes_the_failure_clause():
    # the copy's create effect contradicts the removal: it used to raise
    result = Engine().run_script("rm -rf work\ncp a work/sub\n")
    assert not result.has("internal-error")
    assert [state.status for state in result.states] == [1]


def test_writing_a_directory_is_no_crash():
    result = Engine().run_script("mkdir -p work\ntouch work\n")
    assert not result.has("internal-error")
    assert result.states


@pytest.mark.parametrize("seed", range(40))
def test_safe_generator_seeds_analyse_without_internal_errors(seed):
    report = analyze(generate(seed, safe=True), **CampaignConfig().analyze_kwargs())
    assert not report.has("internal-error"), report.render()


@pytest.mark.parametrize("seed", [25, 32])
def test_a_contradicting_effect_no_longer_aborts_the_run(seed):
    """Seed 25 creates under a removed directory, seed 32 writes a
    directory; both runs used to end in the contradiction.  The sweep
    over every safe seed at the default fork budget and through
    ``build_plan`` is in ``benchmarks/test_bench_symex.py``."""
    source = generate(seed, safe=True)
    report = analyze(source)
    assert not report.has("internal-error"), report.render()
    plan = build_plan(source)
    assert not plan.degraded, plan.degraded_reason
    assert "internal-error" not in json.dumps(plan.to_dict())
