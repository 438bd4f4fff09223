"""Facts that depend on no symbolic state are computed once: a DFA's
emptiness and a value's concrete text in a slot of the immutable object,
a path's spelling in a map shared by a file system's forks, and the
checker hooks only on the checkers that override them.  Each memoised
answer must equal the one computed afresh."""

import pickle

from repro.analysis import analyze
from repro.analysis.difftest.campaign import CampaignConfig
from repro.analysis.difftest.gen import generate
from repro.checkers import Checker
from repro.fs import FileSystem, NodeKind, parse_sympath
from repro.rlang import dfa as dfa_mod
from repro.symex import Engine
from repro.symstr import GlobAtom, LitAtom, SymString, VarAtom


def test_memoised_emptiness_equals_a_fresh_walk(monkeypatch):
    built = []
    real = dfa_mod.DFA.__init__

    def collecting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(dfa_mod.DFA, "__init__", collecting)
    kwargs = CampaignConfig().analyze_kwargs()
    for seed in (0, 1, 2, 4, 5):
        analyze(generate(seed, safe=True), **kwargs)
    memoised = [dfa for dfa in built if dfa._empty is not None]
    assert memoised and len(memoised) < len(built)
    answers = set()
    for dfa in built:
        answers.add(dfa.is_empty())
        assert dfa.is_empty() == dfa._walk_empty()
    assert answers == {True, False}


def test_concrete_value_survives_pickling():
    values = [
        SymString(),
        SymString.lit("/opt/steam"),
        SymString([LitAtom("a"), LitAtom(""), LitAtom("b")]),
        SymString.var(3),
        SymString([LitAtom("/x/"), VarAtom(1)]),
        SymString([LitAtom("/x/"), GlobAtom("*")]),
    ]
    texts = [value.concrete_value() for value in values]
    assert texts == ["", "/opt/steam", "ab", None, None, None]
    for value, text in zip(values, texts):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value
        assert copy.concrete_value() == text
        assert copy.is_concrete() == (text is not None)


def _resolve(fs, text, var=None):
    value = SymString.lit(text) if var is None else SymString.var(var) + SymString.lit(text)
    return fs.resolve(parse_sympath(value))


def _assert_paths_walked(fs):
    for node_id in fs.nodes:
        assert fs.path_of(node_id) == fs._walk_path(node_id), node_id


def test_path_of_equals_the_walked_path():
    fs = FileSystem()
    deep = _resolve(fs, "/srv/a/b")
    assert fs.path_of(deep) == "/srv/a/b"
    fs.create(deep, NodeKind.DIR, ensure_parents=True)  # mkdir -p
    left, right = fs.fork(), fs.fork()
    assert left.table.paths is fs.table.paths is right.table.paths
    link = _resolve(left, "/srv/l")
    left.make_symlink(link, deep)
    through = _resolve(left, "/srv/l/c")  # below the link's target
    assert left.path_of(through) == "/srv/a/b/c"
    left.create(through, NodeKind.FILE)
    sym = _resolve(right, "/x", var=7)
    right.create(sym, NodeKind.FILE, ensure_parents=True)
    relative = right.resolve(parse_sympath(SymString.lit("r/s")), cwd=deep)
    assert right.path_of(relative) == "/srv/a/b/r/s"
    right.delete(deep, recursive=True)
    for each in (fs, left, right, left.fork()):
        _assert_paths_walked(each)


def test_path_of_after_a_run():
    script = (
        "mkdir -p /srv/out/logs\n"
        "ln -s /srv/out /srv/current\n"
        "cd /srv/current || exit 1\n"
        "if [ -d logs ]; then touch logs/a; else rm -rf /srv/out; fi\n"
        'cp "$1" "$2/copy"\n'
    )
    result = Engine().run_script(script, n_args=2)
    assert len(result.states) > 1
    for state in result.states:
        _assert_paths_walked(state.fs)


class _Exploding(Checker):
    name = "exploding"

    def __init__(self):
        self.calls = 0

    def on_command(self, state, node, argv, spec):
        self.calls += 1
        raise RuntimeError("boom")


def test_a_raising_on_command_is_disabled_with_an_internal_error():
    checker = _Exploding()
    result = Engine(checkers=[checker]).run_script("echo a\necho b\ntrue\n")
    errors = [d for d in result.diagnostics if d.code == "internal-error"]
    assert len(errors) == 1
    assert "'exploding' (on_command)" in errors[0].message
    assert checker.calls == 1


class _DuckTyped:
    """A checker by its hooks alone: it does not subclass Checker."""

    name = "duck"

    def __init__(self):
        self.calls = []

    def on_command(self, state, node, argv, spec):
        self.calls.append("on_command")

    def on_delete(self, state, node, operand, recursive):
        self.calls.append("on_delete")

    def on_case_arm(self, state, node, item, feasible, static_pattern):
        self.calls.append("on_case_arm")

    def on_always_fails(self, state, node, reason):
        self.calls.append("on_always_fails")

    def on_pipeline(self, state, node, issues):
        self.calls.append("on_pipeline")

    def finish(self, states):
        self.calls.append("finish")
        return []


HOOKED = (
    "rm -rf /tmp/x\n"
    "cat /tmp/x/config\n"
    'case "$1" in a) echo a ;; esac\n'
    "echo hi | grep h\n"
)


def test_a_duck_typed_checker_receives_every_hook():
    checker = _DuckTyped()
    Engine(checkers=[checker]).run_script(HOOKED, n_args=1)
    assert set(checker.calls) == {
        "on_command", "on_delete", "on_case_arm",
        "on_always_fails", "on_pipeline", "finish",
    }


def test_a_checker_lacking_a_hook_is_not_called_for_it():
    class OnlyFinish:
        name = "only-finish"

        def finish(self, states):
            return []

    result = Engine(checkers=[OnlyFinish()]).run_script(HOOKED, n_args=1)
    assert not any(d.code == "internal-error" for d in result.diagnostics)
