"""One optimize request pays for each analysis once: the deps walk is
the request's baseline race run, one re-analysis of the whole rewrite
gates every group, deps merges the states it carries between commands,
the request shares one language table, and the plan does not depend on
the process (its hash seed or what it analyzed before)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.batch import BatchConfig
from repro.analysis import analyze
from repro.analysis.deps import analyze_dependencies, race_keys
from repro.analysis.difftest.gen import generate
from repro.analysis.optimize import advisor, build_plan, optimize_source
from repro.obs import TraceRecorder, use_recorder
from repro.rlang.table import active_table
from repro.shell.ast import Command

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples" / "scripts"


def _run(code, *args, hash_seed="0"):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, check=True, capture_output=True, text=True,
    ).stdout


#: prints generator seed 7's plan as JSON
_SEED_7_PLAN = """
import json
from repro.analysis.difftest.gen import generate
from repro.analysis.optimize import optimize_source
print(json.dumps(optimize_source(generate(7, safe=True)), sort_keys=True))
"""


def test_plan_does_not_depend_on_the_hash_seed():
    """The first `via` kept for a (src, dst, kind) pair of variable edges
    is taken in name order; in set order, seed 7's edge 9 -> 12 read
    `$dir` under PYTHONHASHSEED=2 and `$x` under 0."""
    zero = _run(_SEED_7_PLAN, hash_seed="0")
    two = _run(_SEED_7_PLAN, hash_seed="2")
    assert zero == two
    edges = [
        dep for dep in json.loads(zero)["dependencies"]
        if (dep["src"], dep["dst"], dep["kind"]) == (9, 12, "var")
    ]
    assert [dep["via"] for dep in edges] == ["$dir"]


#: prints fragment_pipeline.sh's plan, after optimizing every other
#: example when asked to
_FRAGMENT_PLAN = """
import json, sys
from pathlib import Path
from repro.analysis.optimize import optimize_source
examples = Path(sys.argv[1])
if sys.argv[2] == "after-others":
    for path in sorted(examples.glob("*.sh")):
        if path.name != "fragment_pipeline.sh":
            optimize_source(path.read_text(encoding="utf-8"))
source = (examples / "fragment_pipeline.sh").read_text(encoding="utf-8")
print(json.dumps(optimize_source(source), sort_keys=True))
"""


def test_plan_same_fresh_and_after_other_requests():
    fresh = _run(_FRAGMENT_PLAN, str(EXAMPLES), "fresh")
    assert _run(_FRAGMENT_PLAN, str(EXAMPLES), "after-others") == fresh


def test_one_exploration_and_one_gate_per_request():
    """Two symbolic runs per request: the deps walk, which runs the race
    checker and so is the baseline, and one race analysis of the rewrite
    that backgrounds every candidate group.  The rewrite surfaces new
    hazards (``$1`` and ``$2`` may name the files the other members
    remove, which node-id dependence does not see), so both groups are
    rejected with that evidence; no group is re-analysed alone."""
    source = 'mkdir -p /w\ncat "$1"\nrm -f /tmp/x\ncat "$2" >/w/a\nrm -f /w/b\n'
    recorder = TraceRecorder()
    with use_recorder(recorder):
        plan = build_plan(source)
    assert recorder.counter("symex.runs") == 2
    assert recorder.counter("optimize.cross_checks") == 1
    assert not plan.groups
    reason = "re-analysis of the rewrite surfaced 3 new hazard(s): race-read-write"
    assert plan.rejected == [
        {"commands": [0, 1, 2], "reason": reason},
        {"commands": [3, 4], "reason": reason},
    ]


class TestRequestTable:
    def test_table_installed_for_the_request_and_dropped(self, monkeypatch):
        seen = []
        real = advisor.analyze_dependencies

        def spy(*args, **kwargs):
            seen.append(active_table())
            return real(*args, **kwargs)

        monkeypatch.setattr(advisor, "analyze_dependencies", spy)
        optimize_source((EXAMPLES / "log_fanout.sh").read_text(encoding="utf-8"))
        assert seen and seen[0] is not None
        assert active_table() is None

    def test_dropped_when_the_request_degrades(self):
        source = (EXAMPLES / "log_fanout.sh").read_text(encoding="utf-8")
        plan = optimize_source(source, BatchConfig(max_states=1))
        assert plan["degraded"]
        assert active_table() is None

    def test_dropped_when_the_request_raises(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("classifier crashed")

        monkeypatch.setattr(advisor, "classify_pipeline", boom)
        source = (EXAMPLES / "log_fanout.sh").read_text(encoding="utf-8")
        with pytest.raises(RuntimeError):
            build_plan(source)
        assert active_table() is None
        plan = optimize_source(source)
        assert "classifier crashed" in plan["degraded_reason"]
        assert active_table() is None


class TestDeps:
    def test_walk_finds_the_races_analyze_finds(self):
        source = (EXAMPLES / "background_race.sh").read_text(encoding="utf-8")
        graph = analyze_dependencies(source)
        assert graph.race_keys
        assert graph.race_keys == race_keys(analyze(source).diagnostics)

    def test_a_crashed_checker_degrades_the_graph_and_withholds_groups(
        self, monkeypatch
    ):
        from repro.analysis.effects import RaceChecker

        def boom(self, states):
            raise RuntimeError("race checker crashed")

        monkeypatch.setattr(RaceChecker, "finish", boom)
        source = (EXAMPLES / "log_fanout.sh").read_text(encoding="utf-8")
        graph = analyze_dependencies(source)
        assert graph.degraded and "race checker crashed" in graph.degraded_reason
        plan = build_plan(source)
        assert plan.degraded and not plan.groups
        assert plan.rejected == [
            {"commands": [1, 2, 3], "reason": "baseline race analysis was degraded"}
        ]

    def test_graph_keeps_the_parsed_commands(self):
        graph = analyze_dependencies("mkdir -p /d\nif true; then echo a > /d/x; fi\n")
        assert len(graph.commands) == len(graph.effects) == 2
        assert all(isinstance(node, Command) for node in graph.commands)

    def test_advisor_does_not_parse_again(self, monkeypatch):
        """The advisor reuses the commands deps parsed, and the deps
        walk is the baseline race analysis: the script is parsed once
        (the rewrite check parses only the rewritten text)."""
        from repro.shell.parser import Parser

        source = (EXAMPLES / "log_fanout.sh").read_text(encoding="utf-8")
        parses = []
        real = Parser.parse_program

        def spy(self):
            if self.source == source:
                parses.append(self)
            return real(self)

        monkeypatch.setattr(Parser, "parse_program", spy)
        plan = build_plan(source)
        assert plan.groups
        assert len(parses) == 1


#: generator seed -> edges a join that kept only the first state's file
#: system (or deps without checkers, whose `mkdir`/`ln` operand lookups
#: allocate fs nodes) lost, and the schedule and groups the plan had
#: before deps merged states.  Seed 20 also pins `13 -> 14`: `ln "$x"`
#: reads the `file.txt` that `mkdir` creates, on a branch that a merge
#: inside the command folds away, which only the walk's journal sees
_KEPT_EDGES = {
    20: (
        [(13, 14, "flow"), (13, 15, "flow")],
        [[0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12], [9, 10], [13], [14], [15]],
        [[8, 11, 12], [9, 10]],
    ),
    30: (
        [(10, 13, "flow"), (13, 14, "anti"), (13, 17, "output")],
        [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], [12, 13], [14, 17], [15, 16]],
        [[9, 11]],
    ),
    37: (
        [(15, 16, "anti")],
        [[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 15], [10, 13], [14], [16]],
        [[12, 15]],
    ),
}


@pytest.mark.parametrize("seed", sorted(_KEPT_EDGES))
def test_merging_states_keeps_every_dependence_edge(seed):
    """deps joins the file systems of the states it merges, so the kept
    state's facts hold on every merged path and no node id an edge needs
    is lost."""
    edges, schedule, groups = _KEPT_EDGES[seed]
    plan = optimize_source(generate(seed, safe=True))
    got = {(dep["src"], dep["dst"], dep["kind"]) for dep in plan["dependencies"]}
    assert set(edges) <= got
    assert plan["schedule"] == schedule
    assert [group["commands"] for group in plan["groups"]] == groups
