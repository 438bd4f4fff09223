"""Aliasing decided on text: a concrete path (no ``<vN>`` segment)
denotes one string, so ``EffectGraph.may_alias`` answers with a string
comparison or a membership test instead of an automaton product.  The
answer, and where a tight DFA-state cap degrades a report, must be the
ones the language intersection gave."""

import itertools
from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.effects import graph as graph_mod
from repro.analysis.effects.graph import Access, EffectGraph
from repro.analysis.optimize import build_plan
from repro.budget import ResourceBudget
from repro.fs import FsOp
from repro.obs import TraceRecorder, use_recorder
from repro.rlang import Regex
from repro.symstr import ConstraintStore

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scripts"


def intersection_alias(graph, a, b):
    """``may_alias`` as it was: always the language intersection."""
    if a.node is not None and a.node == b.node:
        return "node"
    if a.path == b.path:
        return "node"
    if not (graph.path_language(a.path) & graph.path_language(b.path)).is_empty():
        return "language"
    return None


def _store():
    store = ConstraintStore()
    logs = store.fresh(Regex.compile(r"[a-z]+\.log"), label="$1")
    free = store.fresh(label="$2")
    dirs = store.fresh(Regex.compile("tmp|var"), label="$d")
    return store, logs, free, dirs


def _paths(logs, free, dirs):
    return [
        "/",
        "",
        "/tmp",
        "/tmp/",
        "//tmp",
        "/tmp//a.log",
        "tmp/a.log",
        "a.log",
        "../a.log",
        "/tmp/../a.log",
        "/var/log/a.log",
        "/a b/é",
        "/tmp/x<v3>",
        "<v-1>",
        "<v-1>/a.log",
        "<v-1>/../a.log",
        f"/tmp/<v{logs}>",
        f"<v{logs}>",
        f"/<v{dirs}>/a.log",
        f"/<v{dirs}>//a.log",
        f"/tmp/<v{free}>",
        f"<v-1>/<v{logs}>",
    ]


def _access(index, path):
    return Access(index=index, op=FsOp.WRITE, path=path, node=None, origin=None, task=0)


def test_text_answer_equals_the_language_intersection():
    store, logs, free, dirs = _store()
    paths = _paths(logs, free, dirs)
    fast = EffectGraph([], {}, [], [], store)
    slow = EffectGraph([], {}, [], [], store)
    answers = set()
    for (i, p), (j, q) in itertools.product(enumerate(paths), repeat=2):
        a, b = _access(i, p), _access(j, q)
        got = fast.may_alias(a, b)
        assert got == intersection_alias(slow, a, b), (p, q)
        answers.add(got)
    assert answers == {"node", "language", None}


def test_concrete_pairs_build_no_product():
    store, logs, free, dirs = _store()
    concrete = [p for p in _paths(logs, free, dirs) if "<v" not in p or "x<v" in p]
    graph = EffectGraph([], {}, [], [], store)
    recorder = TraceRecorder()
    with use_recorder(recorder):
        for p, q in itertools.combinations(concrete, 2):
            graph.may_alias(_access(0, p), _access(1, q))
            graph.may_alias(_access(0, p), _access(1, f"/tmp/<v{logs}>"))
    assert recorder.counter("rlang.product_calls") == 0
    assert graph.may_alias(_access(0, "//tmp/a.log/"), _access(1, "/tmp/a.log")) == "language"
    assert graph.may_alias(_access(0, "/tmp/a.log"), _access(1, "tmp/a.log")) is None


def _race_sources():
    fanout = (EXAMPLES / "log_fanout.sh").read_text(encoding="utf-8")
    return {
        "background_race": (
            (EXAMPLES / "background_race.sh").read_text(encoding="utf-8"), None
        ),
        "log_fanout_rewrite": (build_plan(fanout).rewritten_script, None),
        "symbolic": (
            'case "$1" in *.log) cmd > "$1" & grep x a.log;; esac\n'
            'cmd > "$2" & cat /tmp//x/ y/\n',
            2,
        ),
    }


CAPS = [*range(2, 49), 64, 96, 128, 192, 256, 384, 512, 768, 1024]


@pytest.mark.parametrize("name", ["background_race", "log_fanout_rewrite", "symbolic"])
def test_dfa_cap_degrades_where_it_did(monkeypatch, name):
    """Every cap gives the report the language intersection gave:
    degraded at the same caps, with the same text.  The small caps trip
    while path languages are built, the middle ones in a product the
    text answer must not skip, the large ones nowhere."""
    source, n_args = _race_sources()[name]

    def renders():
        out = []
        for cap in CAPS:
            report = analyze(
                source, n_args=n_args, budget=ResourceBudget(max_dfa_states=cap)
            )
            out.append((report.degraded, report.render()))
        return out

    fast = renders()
    monkeypatch.setattr(graph_mod.EffectGraph, "may_alias", intersection_alias)
    assert fast == renders()
    assert fast[0][0] and not fast[-1][0]
