"""``FileSystem.join``: the facts that hold on both of two forks' paths.

Both forks name a path by one node id (they share a ``NodeTable``), so
the join is node by node.  It must be idempotent, its facts must not
depend on the order of its arguments, and on every node it must agree
with each fork's effective existence or say UNKNOWN."""

import random

import pytest

from repro.fs import Existence, FileSystem, FsContradiction, NodeKind, parse_sympath
from repro.fs.model import PLACEHOLDER
from repro.symstr import SymString

PATHS = ("/a", "/a/b", "/a/b/c", "/a/d", "/e", "/e/f")
KINDS = (NodeKind.FILE, NodeKind.DIR)


def _node(fs, text):
    return fs.resolve(parse_sympath(SymString.lit(text)))


def _facts(fs):
    return fs.nodes, fs.denied


def _joined(left, right):
    out = left.fork()
    out.join(right)
    return out


def _mutate(fs, rng, steps):
    """Apply ``steps`` random fs operations, skipping contradicted ones."""
    for _ in range(steps):
        node = _node(fs, rng.choice(PATHS))
        op = rng.randrange(7)
        try:
            if op == 0:
                fs.create(node, rng.choice(KINDS), ensure_parents=True)
            elif op == 1:
                fs.delete(node, recursive=rng.random() < 0.5)
            elif op == 2:
                fs.assume_exists(node, rng.choice(KINDS + (NodeKind.UNKNOWN,)))
            elif op == 3:
                fs.assume_absent(node)
            elif op == 4:
                fs.deny_kind(node, rng.choice(KINDS))
            elif op == 5:
                fs.make_symlink(node, _node(fs, rng.choice(PATHS)))
            else:
                _node(fs, rng.choice(PATHS) + "/g")
        except FsContradiction:
            pass


def _fork_pairs():
    for seed in range(60):
        rng = random.Random(seed)
        base = FileSystem()
        _mutate(base, rng, 3)
        left, right = base.fork(), base.fork()
        _mutate(left, rng, rng.randrange(6))
        _mutate(right, rng, rng.randrange(6))
        yield seed, left, right


@pytest.mark.parametrize("seed,left,right", list(_fork_pairs()))
class TestJoinLaws:
    def test_idempotent(self, seed, left, right):
        assert _facts(_joined(left, left)) == _facts(left)
        both = _joined(left, right)
        assert _facts(_joined(both, both)) == _facts(both)

    def test_facts_do_not_depend_on_argument_order(self, seed, left, right):
        assert _facts(_joined(left, right)) == _facts(_joined(right, left))

    def test_each_fork_agrees_with_the_join_or_the_join_is_unknown(
        self, seed, left, right
    ):
        joined = _joined(left, right)
        assert joined.nodes.keys() == left.nodes.keys() | right.nodes.keys()
        for fork in (left, right):
            for node in fork.nodes:
                effective = joined.existence(node)
                assert effective in (fork.existence(node), Existence.UNKNOWN), (
                    seed, fork.path_of(node)
                )


def test_differing_existence_is_unknown_and_an_absent_side_kind_does_not_count():
    base = FileSystem()
    node = _node(base, "/d")
    left, right = base.fork(), base.fork()
    left.create(node, NodeKind.FILE)
    left.delete(node)
    right.create(node, NodeKind.DIR)
    joined = _joined(left, right)
    assert joined.existence(node) is Existence.UNKNOWN
    assert joined.kind(node) is NodeKind.DIR
    # both exist, as different kinds
    left.create(node, NodeKind.FILE)
    joined = _joined(left, right)
    assert joined.existence(node) is Existence.EXISTS
    assert joined.kind(node) is NodeKind.UNKNOWN


def test_a_node_one_fork_knows_joins_with_a_placeholder():
    base = FileSystem()
    left, right = base.fork(), base.fork()
    node = _node(left, "/only/here")
    left.create(node, NodeKind.FILE, ensure_parents=True)
    joined = _joined(right, left)
    assert joined.nodes[node] is PLACEHOLDER
    assert joined.existence(node) is Existence.UNKNOWN


def test_differing_link_targets_are_unknown():
    base = FileSystem()
    link, one, two = (_node(base, text) for text in ("/l", "/t1", "/t2"))
    left, right = base.fork(), base.fork()
    left.make_symlink(link, one)
    right.make_symlink(link, two)
    joined = _joined(left, right)
    assert joined.kind(link) is NodeKind.SYMLINK
    assert joined.nodes[link].link_target is None
    right.make_symlink(link, one)
    assert _joined(left, right).nodes[link].link_target == one


def test_a_kind_stays_denied_only_where_both_forks_deny_it():
    base = FileSystem()
    node, other = _node(base, "/x"), _node(base, "/y")
    left, right = base.fork(), base.fork()
    left.deny_kind(node, NodeKind.DIR)
    left.deny_kind(node, NodeKind.FILE)
    right.deny_kind(node, NodeKind.DIR)
    left.deny_kind(other, NodeKind.FILE)
    assert _joined(left, right).denied == {node: frozenset({NodeKind.DIR})}


def test_an_ancestor_absent_on_one_side_unpins_an_existing_node():
    """A non-recursive delete marks a directory absent and leaves its
    known child's record as it was; where the other fork keeps the
    directory, the child's existence is not known on both paths."""
    base = FileSystem()
    child = _node(base, "/d/f")
    base.create(child, NodeKind.FILE, ensure_parents=True)
    parent = base.parent_of(child)
    left, right = base.fork(), base.fork()
    left.delete(parent)
    assert left.existence(child) is Existence.ABSENT
    assert right.existence(child) is Existence.EXISTS
    for joined in (_joined(left, right), _joined(right, left)):
        assert joined.existence(parent) is Existence.UNKNOWN
        assert joined.existence(child) is Existence.UNKNOWN
