"""Merging states at a join keeps every diagnostic once, in order.

``Engine.merge_states`` keeps the first state per merge key and appends the
diagnostics of each state merged into it that it does not hold yet.  The
check is a seen-set per kept state, so a wide join costs linear time in
its diagnostics; the result must be the list the old per-diagnostic
list scan built.

A state capturing a command substitution's output merges only with one
that captured the same text."""

from repro.diag import Diagnostic, Severity
from repro.shell.tokens import Position
from repro.symex import Engine, SymState


def _diag(code, line=None, **fields):
    pos = None if line is None else Position(line=line, col=1, offset=line * 10)
    return Diagnostic(code=code, message=f"{code} message", pos=pos, **fields)


def _scan_merge(groups):
    """The quadratic merge the seen-set replaced, as the oracle."""
    kept = list(groups[0])
    for diagnostics in groups[1:]:
        kept.extend(d for d in diagnostics if d not in kept)
    return kept


def test_duplicate_and_overlapping_diagnostics_merge_like_the_list_scan():
    a, b, c = _diag("a", 1), _diag("b", 2), _diag("c")
    groups = [
        # the kept state's own duplicates stay, as before
        [a, b, a],
        # equal by value but not the same objects (Position is unhashable)
        [_diag("b", 2), c, _diag("a", 1), c],
        # differ from a only in one field each: all are new
        [_diag("a", 3), _diag("a", 1, always=True), _diag("a", 1, witness="/"),
         _diag("a", 1, severity=Severity.ERROR), _diag("a", 1, related=("x",))],
        [c, _diag("a", 1, always=True), _diag("d", 4), _diag("d", 4)],
    ]
    states = [SymState(status=0, diagnostics=list(group)) for group in groups]
    engine = Engine()
    merged = engine.merge_states(states)
    assert merged == [states[0]]
    assert engine.paths_merged == 3
    assert merged[0].diagnostics == _scan_merge(groups)
    assert len(merged[0].diagnostics) == 10


def test_each_merge_key_keeps_its_own_diagnostics():
    shared = _diag("shared", 1)
    states = [
        SymState(status=0, diagnostics=[shared]),
        SymState(status=1, diagnostics=[_diag("other", 2)]),
        SymState(status=0, diagnostics=[_diag("shared", 1), _diag("zero", 3)]),
        SymState(status=1, diagnostics=[_diag("shared", 1)]),
    ]
    merged = Engine().merge_states(states)
    assert [st.status for st in merged] == [0, 1]
    assert merged[0].diagnostics == [shared, _diag("zero", 3)]
    assert merged[1].diagnostics == [_diag("other", 2), _diag("shared", 1)]


# -- captured output merges by content -------------------------------------

CAPTURED = (
    't=$(if [ -e /tmp/flag ]; then echo /tmp/x; else echo /; fi)\n'
    'rm -rf "$t"\n'
)
ASSIGNED = 'if [ -e /tmp/flag ]; then t=/tmp/x; else t=/; fi\nrm -rf "$t"\n'


def test_captured_texts_of_equal_length_do_not_merge():
    """Two paths of a command substitution that printed different text
    of the same length stay apart: merging them lost one value, and the
    ``rm -rf /`` path went unreported."""
    from repro.checkers import default_checkers

    for source in (CAPTURED, ASSIGNED):
        for prune in (True, False):
            engine = Engine(checkers=default_checkers(), prune=prune)
            codes = {d.code for d in engine.run_script(source).diagnostics}
            assert "dangerous-deletion" in codes, (source, prune)


def test_capturing_states_merge_on_equal_text_only():
    from repro.symstr import SymString

    def capturing(*texts):
        state = SymState(capturing=True)
        for text in texts:
            state.emit_text(SymString.lit(text))
        return state

    a, b, c = capturing("/tmp/x\n"), capturing("/\n"), capturing("/tmp/x\n")
    assert Engine().merge_states([a, b, c]) == [a, b]
    # outside a capture, stdout is not part of the state
    d, e = SymState(), SymState()
    d.emit_text(SymString.lit("x"))
    assert Engine().merge_states([d, e]) == [d]


def test_join_fs_merges_on_one_cwd_node_and_joins_the_file_systems():
    """The engine's joins keep the first state's file-system facts;
    ``join_fs`` (the merge ``analysis.deps`` carries states with) also
    requires one cwd node, and widens the kept facts so they hold on
    every merged state's path: a node one state knows and another does
    not is a placeholder, and a kind stays denied only where every state
    denies it."""
    from repro.fs import Existence, NodeKind, parse_sympath
    from repro.fs.model import PLACEHOLDER
    from repro.symstr import SymString

    base = SymState()
    node = base.fs.resolve(parse_sympath(SymString.lit("/d/f")))
    base.fs.create(node, NodeKind.FILE, ensure_parents=True)
    base.fs.deny_kind(base.fs.ROOT, NodeKind.FILE)
    same, removed, new_node, denied, moved = (base.fork() for _ in range(5))
    removed.fs.delete(node)
    root = new_node.fs.sym_root(7)
    denied.fs.deny_kind(base.fs.ROOT, NodeKind.DIR)
    moved.cwd_node = base.fs.ROOT
    states = [base, same, removed, new_node, denied, moved]
    assert Engine().merge_states(list(states)) == [base]
    assert base.fs.existence(node) is Existence.EXISTS

    kept = base.fork()
    states[0] = kept
    assert Engine().merge_states(list(states), join_fs=True) == [kept, moved]
    assert kept.fs.existence(node) is Existence.UNKNOWN
    assert kept.fs.kind(node) is NodeKind.FILE
    assert kept.fs.nodes[root] is PLACEHOLDER
    assert kept.fs.denied == {base.fs.ROOT: frozenset({NodeKind.FILE})}
