"""An optimize request starts both of its runs as ``analyze`` does.

The dependence walk and the gate's re-analysis of the rewrite go
through :func:`~repro.analysis.analyzer.start_run`: argv is unknown at
entry unless ``n_args``/``args`` fix it, the script's annotations hold,
and the race checker is on whatever the config says."""

from repro.analysis import analyze
from repro.analysis.analyzer import start_run
from repro.analysis.deps import analyze_dependencies, race_keys
from repro.analysis.optimize import build_plan
from repro.analysis.pipeline import BatchConfig
from repro.symstr import SymString


def _edges(plan):
    return {(dep["src"], dep["dst"], dep["kind"]) for dep in plan.dependencies}


def test_the_walk_models_argv_as_unknown():
    """Minimized from safe generator seed 31 (`touch "$x" | rm $1` then
    `mkdir --force $1 $1`): with argv empty both commands name no file,
    and `{0,1}` was a candidate group the gate had to reject."""
    plan = build_plan("rm $1\nmkdir $1\n")
    assert {(0, 1, "flow"), (0, 1, "anti"), (0, 1, "output")} <= _edges(plan)
    assert plan.schedule == [[0], [1]]
    assert not plan.rejected


def test_args_reach_the_walk():
    """`mkdir "$1"` with `--args /w` creates the directory `touch /w/x`
    writes into: the walk orders them instead of grouping them."""
    plan = build_plan('mkdir "$1"\ntouch /w/x\n', BatchConfig(args=("/w",)))
    assert (0, 1, "flow") in _edges(plan)
    assert plan.schedule == [[0], [1]] and not plan.groups


ANNOTATED = '# @var D : /srv/[a-z]+\nif [ -z "$D" ]; then touch /w/flag; fi\ncat /w/flag\n'


def test_an_annotation_reaches_both_runs_and_the_rewrite():
    """`$D` is never empty under its annotation, so command 0 writes
    nothing: the walk has no edge, and the gate, analysing a rewrite that
    keeps the annotation, sees no race."""
    plan = build_plan(ANNOTATED)
    assert plan.dependencies == []
    assert [group.commands for group in plan.groups] == [[0, 1]]
    assert plan.rewritten_script.splitlines()[0] == "# @var D : /srv/[a-z]+"
    # without the annotation the write is possible and orders the two
    unannotated = build_plan(ANNOTATED.split("\n", 1)[1])
    assert (0, 1, "flow") in _edges(unannotated)


def test_the_gate_forces_races_on():
    """`$1` and `$2` may name the files the other members remove: the
    rewrite's race hazards reject both groups even when the config turns
    the race checker off."""
    source = 'mkdir -p /w\ncat "$1"\nrm -f /tmp/x\ncat "$2" >/w/a\nrm -f /w/b\n'
    plan = build_plan(source, BatchConfig(races=False))
    assert not plan.groups
    assert plan.rejected == build_plan(source).rejected
    assert [entry["commands"] for entry in plan.rejected] == [[0, 1, 2], [3, 4]]


def test_the_walk_is_the_race_baseline_analyze_would_be():
    """`cat "$1"` may read the `/tmp/a` being created: with argv empty
    the walk's hazards named another file than ``analyze``'s."""
    source = 'touch /tmp/a &\ncat "$1"\n'
    keys = analyze_dependencies(source).race_keys
    assert keys and keys == race_keys(analyze(source).diagnostics)


def test_start_run_gives_the_entry_state_and_engine():
    engine, _, entry = start_run("echo", args=["a"], max_fork=16, races=False)
    assert entry.params[1:] == [SymString.lit("a")]
    assert engine.max_fork == 16
    assert "races" not in {checker.name for checker in engine.checkers}
