"""Symbolic-execution count guards over the benchmark's generator seeds.

State merging hashes each state from a few scalars and the fingerprints
its variables, functions and constraint store keep up to date, and a
literal word is split into fields once per run.  These guards count
what that saves on perfbench's ``generated_seeds`` scripts: counts, not
milliseconds, so they do not depend on the machine.
"""

import ast
import json
import re
from pathlib import Path

import pytest
from conftest import emit

from repro.analysis import analyze
from repro.analysis.difftest.campaign import CampaignConfig
from repro.analysis.difftest.gen import generate
from repro.analysis.optimize import build_plan
from repro.checkers import Checker, default_checkers
from repro.fs.model import FileSystem, NodeTable
from repro.obs import TraceRecorder, use_recorder
from repro.rlang.dfa import DFA
from repro.symex import Engine
from repro.symex import engine as engine_mod
from repro.symstr import SymString

ROOT = Path(__file__).resolve().parents[1]


def _generator_seeds():
    text = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    match = re.search(r"^GENERATOR_SEEDS = (\(.*\))$", text, re.MULTILINE)
    assert match, "perfbench/run.py no longer defines GENERATOR_SEEDS"
    return ast.literal_eval(match.group(1))


@pytest.fixture(scope="module")
def seeds_run():
    """One analysis per generator seed, counting ``SymString``
    constructions and hashes; returns (analyses, counts, recorder)."""
    counts = {"constructions": 0, "hashes": 0}
    init, hash_ = SymString.__init__, SymString.__hash__

    def counted_init(self, *args, **kwargs):
        counts["constructions"] += 1
        init(self, *args, **kwargs)

    def counted_hash(self):
        counts["hashes"] += 1
        return hash_(self)

    kwargs = CampaignConfig().analyze_kwargs()
    sources = [generate(seed, safe=True) for seed in _generator_seeds()]
    recorder = TraceRecorder()
    SymString.__init__, SymString.__hash__ = counted_init, counted_hash
    try:
        with use_recorder(recorder):
            for source in sources:
                analyze(source, **kwargs)
    finally:
        SymString.__init__, SymString.__hash__ = init, hash_
    return len(sources), counts, recorder


def test_symstring_construction_counts(seeds_run):
    """Literal words split once per run and a shared empty value: 552
    constructions per analysis (4 940 when every expansion rebuilt its
    literal fields)."""
    analyses, counts, _ = seeds_run
    per = counts["constructions"] / analyses
    emit("E-symex-keys (SymString constructions per analysis)",
         [f"{per:.1f}  ceiling=1000"])
    assert 0 < per <= 1000


def test_symstring_hash_counts(seeds_run):
    """Fingerprinted merge keys: about 3 000 hashes per analysis
    (25 700 when each prune sorted and hashed every binding)."""
    analyses, counts, _ = seeds_run
    per = counts["hashes"] / analyses
    emit("E-symex-keys (SymString hashes per analysis)", [f"{per:.1f}  ceiling=6000"])
    assert 0 < per <= 6000


def test_path_counts(seeds_run):
    """The same paths explored and merged as with the sorted-tuple key."""
    analyses, _, recorder = seeds_run
    explored = recorder.counter("symex.states_explored")
    merged = recorder.counter("symex.states_merged")
    emit("E-symex-keys (paths over the generator seeds)",
         [f"explored={explored} merged={merged} over {analyses} analyses"])
    assert analyses == 15
    assert (explored, merged) == (7108, 1459)


#: the checker hooks the engine dispatches
HOOKS = ("on_command", "on_delete", "on_case_arm", "on_always_fails", "on_pipeline", "finish")


def test_state_independent_counts(monkeypatch):
    """Facts that depend on no state are computed once: a path is parsed
    once per operand and run, a hook reaches only the checkers that
    override it, and a DFA walks for emptiness once.  Per pass over the
    generator seeds, after a warm-up pass that builds the process's
    constant languages: 169 path parses in the engine, one per distinct
    operand of a run (6 620 when every resolve and file test parsed),
    5 940 hook dispatches (35 640 when every checker got every hook) and
    104 emptiness walks (3 870 when every query walked).  A run's forks
    share one fs node per path, and a branch point forks once per outcome
    but the last: 194 node ids (1 520 when each fork drew its own) and
    5 953 file-system forks (9 459 when every outcome forked)."""
    kwargs = CampaignConfig().analyze_kwargs()
    sources = [generate(seed, safe=True) for seed in _generator_seeds()]
    for source in sources:
        analyze(source, **kwargs)

    counts = {"parses": 0, "distinct": 0, "walks": 0, "dispatches": 0, "forks": 0, "ids": 0}
    operands = set()
    parse, sympath = engine_mod.parse_sympath, Engine.sympath
    walk = DFA._walk_empty
    fork, child = FileSystem.fork, NodeTable.child

    def counted_parse(value):
        counts["parses"] += 1
        return parse(value)

    def counted_sympath(self, value):
        operands.add(value)
        return sympath(self, value)

    def counted_walk(self):
        counts["walks"] += 1
        return walk(self)

    def counted_fork(self):
        counts["forks"] += 1
        return fork(self)

    def counted_child(self, parent, name):
        known = len(self.parent)
        node_id = child(self, parent, name)
        counts["ids"] += node_id == known
        return node_id

    def counted_hook(real):
        def hook(self, *args):
            counts["dispatches"] += 1
            return real(self, *args)

        return hook

    monkeypatch.setattr(engine_mod, "parse_sympath", counted_parse)
    monkeypatch.setattr(Engine, "sympath", counted_sympath)
    monkeypatch.setattr(DFA, "_walk_empty", counted_walk)
    monkeypatch.setattr(FileSystem, "fork", counted_fork)
    monkeypatch.setattr(NodeTable, "child", counted_child)
    # count at the checkers' own hooks: only the ones a class overrides,
    # since the engine dispatches to no other
    for cls in {type(checker) for checker in default_checkers()}:
        for name in HOOKS:
            real = getattr(cls, name)
            if real is not getattr(Checker, name):
                monkeypatch.setattr(cls, name, counted_hook(real))
    recorder = TraceRecorder()
    with use_recorder(recorder):
        for source in sources:
            operands.clear()
            analyze(source, **kwargs)
            counts["distinct"] += len(operands)
    explored = recorder.counter("symex.states_explored")
    merged = recorder.counter("symex.states_merged")
    emit("E-symex-once (state-independent work per pass over the generator seeds)",
         [f"{name}={value}" for name, value in counts.items()]
         + [f"explored={explored} merged={merged}"])
    assert counts["parses"] <= counts["distinct"]
    assert counts == {
        "parses": 169, "distinct": 169, "walks": 104, "dispatches": 5940,
        "forks": 5953, "ids": 194,
    }
    assert (explored, merged) == (7108, 1459)


def test_safe_seeds_analyse_and_plan_without_internal_errors():
    """A spec effect that contradicts the path's facts makes its clause
    infeasible, so no safe generator seed ends in an ``internal-error``:
    analysed at the default fork budget and planned by ``build_plan``
    (seeds 25 and 32 used to raise ``FsContradiction`` out of both)."""
    failing = []
    for seed in range(40):
        source = generate(seed, safe=True)
        if analyze(source).has("internal-error"):
            failing.append(f"analyze {seed}")
        if "internal-error" in json.dumps(build_plan(source).to_dict()):
            failing.append(f"build_plan {seed}")
    emit("E-symex-clean (safe generator seeds 0-39)", [f"failing={failing}"])
    assert failing == []
