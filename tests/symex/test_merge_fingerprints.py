"""The merge-key fingerprints never go stale.

Variables, functions and the constraint store each keep an XOR
fingerprint of their bindings, updated on every write.  These tests
recompute each one from scratch on every state a prune sees and on every
final state, over the examples and the labelled corpus, and check that
a fingerprint match alone never merges states.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.corpus import corpus
from repro.symex import Engine, SymState
from repro.symstr import SymString
from tests.symex.merge_keys import assert_fingerprints_fresh

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scripts"


class Checked:
    def __init__(self):
        self.finals = []
        self.stale = []

    def check(self, state):
        # recorded, not raised: a caller may catch what the engine raises
        try:
            assert_fingerprints_fresh(state)
        except AssertionError:
            self.stale.append(state)


@pytest.fixture
def checked(monkeypatch):
    """Check the fingerprints of every state entering a prune and of
    every final state."""
    seen = Checked()
    run, prune = Engine.run, Engine._prune

    def checked_run(self, *args, **kwargs):
        result = run(self, *args, **kwargs)
        seen.finals.extend(result.states)
        for state in result.states:
            seen.check(state)
        return result

    def checked_prune(self, states):
        for state in states:
            seen.check(state)
        return prune(self, states)

    monkeypatch.setattr(Engine, "run", checked_run)
    monkeypatch.setattr(Engine, "_prune", checked_prune)
    return seen


def test_examples_and_corpus_keep_fresh_fingerprints(checked):
    sources = [(p.read_text(encoding="utf-8"), {}) for p in sorted(EXAMPLES.glob("*.sh"))]
    sources += [(script.source, {"n_args": script.n_args}) for script in corpus()]
    for source, kwargs in sources:
        analyze(source, **kwargs)
    assert not checked.stale
    assert len(checked.finals) >= len(sources)
    # the scripts exercise every kind of binding
    assert any(state.env for state in checked.finals)
    assert any(state.functions for state in checked.finals)


def test_equal_fingerprints_alone_do_not_merge():
    a, b = SymState(), SymState()
    a.set_var("x", SymString.lit("1"))
    b.set_var("x", SymString.lit("2"))
    b.env_fingerprint = a.env_fingerprint
    assert Engine()._prune([a, b]) == [a, b]


def test_function_bodies_compare_by_identity():
    from repro.shell import parse

    body = parse("echo hi")
    twin = parse("echo hi")
    a, b, c = SymState(), SymState(), SymState()
    a.define_function("f", body)
    b.define_function("f", twin)
    c.define_function("f", body)
    engine = Engine()
    assert engine._prune([a, b, c]) == [a, b]
    assert engine.paths_merged == 1


def test_redefinition_and_unset_update_fingerprints():
    from repro.shell import parse

    state = SymState()
    state.set_var("x", SymString.lit("1"))
    state.set_var("x", SymString.lit("2"))
    state.unset_var("x")
    state.unset_var("never-set")
    state.define_function("f", parse("true"))
    state.define_function("f", parse("false"))
    vid = state.store.fresh()
    state.store.refine(vid, state.store.constraint(vid))
    child = state.fork("child")
    child.set_var("y", SymString.var(vid))
    child.store.exclude(vid, child.store.constraint(vid))
    child.restore_scope(state.scope())
    for st in (state, child):
        assert_fingerprints_fresh(st)
    assert child.env_fingerprint == state.env_fingerprint
