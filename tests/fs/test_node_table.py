"""One fs node per path, shared by every fork of a run.

A file system's forks share one :class:`~repro.fs.model.NodeTable`: it
interns a node id per (parent, component) and per symbolic root, and
each fork keeps only its facts about the nodes it knows."""

import re

from repro.fs import Existence, FileSystem, FsOp, NodeKind, parse_sympath
from repro.shell.parser import parse
from repro.specs.ir import Clause, CommandSpec, Exists, PathKind
from repro.symex import Engine
from repro.symstr import ConstraintStore, SymString


def _path(text, var=None):
    value = SymString.lit(text) if var is None else SymString.var(var) + SymString.lit(text)
    return parse_sympath(value)


def _deleted(fs):
    return [event.path for event in fs.log if event.op is FsOp.DELETE]


class TestOneIdPerPath:
    def test_sibling_forks_resolve_a_path_to_one_id(self):
        fs = FileSystem()
        left, right = fs.fork(), fs.fork()
        first = left.resolve(_path("/srv/data/f"))
        right.resolve(_path("/srv/other"))
        assert right.resolve(_path("/srv/data/f")) == first
        assert fs.resolve(_path("/srv/data/f")) == first
        assert left.path_of(first) == "/srv/data/f"

    def test_rm_and_recreate_keep_the_id(self):
        fs = FileSystem()
        node = fs.resolve(_path("/tmp/f"))
        fs.create(node, NodeKind.FILE, ensure_parents=True)
        fs.delete(node)
        assert fs.existence(node) is Existence.ABSENT
        again = fs.resolve(_path("/tmp/f"))
        fs.create(again, NodeKind.FILE)
        assert again == node
        assert fs.existence(node) is Existence.EXISTS

    def test_symbolic_roots_are_interned_by_variable_id(self):
        store = ConstraintStore()
        v, w = store.fresh(label="$1"), store.fresh(label="$2")
        fs = FileSystem()
        left, right = fs.fork(), fs.fork()
        root = left.resolve(_path("", var=v))
        assert right.resolve(_path("", var=v)) == root
        assert right.resolve(_path("", var=w)) != root
        below = right.resolve(_path("/x", var=v))
        assert left.resolve(_path("/x", var=v)) == below
        assert left.parent_of(below) == root
        assert left.parent_of(root) is None


def _ids(source):
    """Every known node of every final state, by path (variable ids are
    still drawn per process, so a symbolic root reads ``<v>``)."""
    result = Engine().run_script(source, n_args=1)
    return sorted(
        {
            (re.sub(r"<v\d+>", "<v>", state.fs.path_of(node)), node)
            for state in result.states
            for node in state.fs.nodes
        }
    )


def test_ids_do_not_depend_on_what_the_process_analysed_before():
    source = (
        "mkdir -p /srv/out\n"
        'if [ -d "$1" ]; then cp "$1/a" /srv/out/a; else touch /srv/out/b; fi\n'
        "rm -rf /srv/out\n"
    )
    fresh = _ids(source)
    _ids("touch /x/y/z\nrm -r /x\ncat /q\n")
    assert _ids(source) == fresh


def test_forks_resolving_paths_in_different_orders_have_the_same_facts():
    fs = FileSystem()
    left, right = fs.fork(), fs.fork()
    for text in ("/a/b", "/c", "/a/d"):
        left.resolve(_path(text))
    for text in ("/a/d", "/c", "/a/b"):
        right.resolve(_path(text))
    assert left.nodes == right.nodes and left.denied == right.denied
    for each in (left, right):
        each.assume_exists(each.resolve(_path("/a/b")), NodeKind.FILE)
    assert left.nodes == right.nodes and left.denied == right.denied
    right.deny_kind(right.resolve(_path("/c")), NodeKind.DIR)
    assert left.nodes == right.nodes and left.denied != right.denied


class TestDeletionVisitsKnownChildren:
    def test_recursive_delete(self):
        fs = FileSystem()
        top = fs.resolve(_path("/d"))
        left, right = fs.fork(), fs.fork()
        left.resolve(_path("/d/a"))
        right.resolve(_path("/d/b/c"))
        right.delete(top, recursive=True)
        assert _deleted(right) == ["/d/b/c", "/d/b", "/d"]
        assert right.resolve(_path("/d/a"), create=False) is None
        left.delete(top, recursive=True)
        assert _deleted(left) == ["/d/a", "/d"]

    def test_glob_delete(self):
        source = (
            "if [ -e /flag ]; then touch /d/a; x=a; else touch /d/b; x=b; fi\n"
            "rm -rf /d/*\n"
        )
        result = Engine().run_script(source)
        deleted = sorted(tuple(_deleted(state.fs)) for state in result.states)
        assert deleted == [("/d/a",), ("/d/b",)]


def test_lookup_adds_no_placeholder():
    fs = FileSystem()
    gone = fs.resolve(_path("/gone"))
    fs.delete(gone)
    known = dict(fs.nodes)
    assert fs.lookup(_path("/gone/x/y")) == (None, Existence.ABSENT)
    assert fs.lookup(_path("/other/x")) == (None, Existence.UNKNOWN)
    assert fs.lookup(_path("/gone")) == (gone, Existence.ABSENT)
    assert fs.nodes == known


def test_all_clauses_infeasible_returns_the_untouched_incoming_state():
    """Only the last clause may take the incoming state, and only once
    an earlier clause was feasible: here none is, so the state comes back
    as it was, with status 1."""
    needs_file = (Exists(kind=PathKind.FILE),)
    spec = CommandSpec(
        "probe",
        clauses=[Clause(pre=needs_file, exit_code=0), Clause(pre=needs_file, exit_code=2)],
    )
    engine = Engine()
    state = engine.initial_state()
    gone = state.fs.resolve(_path("/gone"))
    state.fs.delete(gone)
    nodes, notes, events = dict(state.fs.nodes), list(state.notes), len(state.fs.log)
    node = parse("probe /gone")
    argv = [SymString.lit("probe"), SymString.lit("/gone")]
    assert engine._apply_spec(spec, node, argv, state) == [state]
    assert state.status == 1
    assert (state.fs.nodes, state.notes, len(state.fs.log)) == (nodes, notes, events)


def test_last_clause_takes_the_incoming_state():
    spec = CommandSpec("probe", clauses=[Clause(exit_code=0), Clause(exit_code=1)])
    engine = Engine()
    state = engine.initial_state()
    argv = [SymString.lit("probe"), SymString.lit("/f")]
    results = engine._apply_spec(spec, parse("probe /f"), argv, state)
    assert [each.status for each in results] == [0, 1]
    assert results[0] is not state and results[1] is state
    assert results[1].notes[-1] == "probe: exit 1"


def test_idempotence_guard_reads_the_state_without_changing_it():
    """``[ -d X ] || mkdir X``-style guards are judged through
    :meth:`FileSystem.lookup`: the checker adds no placeholder to the
    state it judges, and an operand below a deleted directory still reads
    ABSENT."""
    from repro.checkers.idempotence import IdempotenceChecker

    checker = IdempotenceChecker()
    state = Engine().initial_state()
    gone = state.fs.resolve(_path("/gone"))
    state.fs.delete(gone)
    nodes = dict(state.fs.nodes)
    mkdir = SymString.lit("mkdir")
    assert checker._guarded(state, "mkdir", [mkdir, SymString.lit("/gone/sub/dir")])
    assert not checker._guarded(state, "mkdir", [mkdir, SymString.lit("/new/dir")])
    assert state.fs.nodes == nodes
