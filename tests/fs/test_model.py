"""Unit tests for the symbolic file system."""

import pytest

from repro.fs import (
    Existence,
    FileSystem,
    FsContradiction,
    FsOp,
    NodeKind,
    SymPath,
    normalise_concrete,
    parse_sympath,
)
from repro.rlang import Regex
from repro.symstr import ConstraintStore, SymString


def path_of(text: str) -> SymPath:
    parsed = parse_sympath(SymString.lit(text))
    assert parsed is not None
    return parsed


class TestNormalise:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("/a/b/c", "/a/b/c"),
            ("/a//b", "/a/b"),
            ("/a/./b", "/a/b"),
            ("/a/../b", "/b"),
            ("/..", "/"),
            ("/", "/"),
            ("a/b/..", "a"),
            ("a/..", "."),
            ("..", ".."),
            ("../../x", "../../x"),
            ("", "."),
            ("/a/b/../../..", "/"),
        ],
    )
    def test_normalise(self, raw, expected):
        assert normalise_concrete(raw) == expected


class TestParseSympath:
    def test_absolute(self):
        p = path_of("/home/user/file")
        assert p.absolute
        assert p.components == ("home", "user", "file")

    def test_relative(self):
        p = path_of("docs/readme")
        assert not p.absolute
        assert p.components == ("docs", "readme")

    def test_sym_rooted(self):
        store = ConstraintStore()
        v = store.fresh(label="$1")
        p = parse_sympath(SymString.var(v) + SymString.lit("/config"))
        assert p.sym_rooted
        assert len(p.components) == 2
        assert p.components[1] == "config"

    def test_fused_segment_unparseable(self):
        store = ConstraintStore()
        v = store.fresh()
        assert parse_sympath(SymString.lit("pre") + SymString.var(v)) is None
        assert parse_sympath(SymString.var(v) + SymString.var(v)) is None

    def test_dotdot_normalised(self):
        assert path_of("/a/b/../c").components == ("a", "c")

    def test_root(self):
        p = path_of("/")
        assert p.absolute and p.components == ()

    def test_trailing_slash(self):
        assert path_of("/a/b/").components == ("a", "b")


class TestResolution:
    def test_same_path_same_node(self):
        fs = FileSystem()
        a = fs.resolve(path_of("/opt/steam"))
        b = fs.resolve(path_of("/opt/steam"))
        assert a == b

    def test_normalised_aliases_share_node(self):
        fs = FileSystem()
        a = fs.resolve(path_of("/opt/steam"))
        b = fs.resolve(path_of("/opt//./steam"))
        c = fs.resolve(path_of("/opt/x/../steam"))
        assert a == b == c

    def test_sym_root_identity(self):
        store = ConstraintStore()
        v = store.fresh(label="$1")
        fs = FileSystem()
        a = fs.resolve(parse_sympath(SymString.var(v)))
        b = fs.resolve(parse_sympath(SymString.var(v) + SymString.lit("/x")))
        assert fs.parent_of(b) == a

    def test_relative_uses_cwd(self):
        fs = FileSystem()
        home = fs.resolve(path_of("/home/me"))
        child = fs.resolve(path_of("notes.txt"), cwd=home)
        assert fs.parent_of(child) == home

    def test_no_create(self):
        fs = FileSystem()
        assert fs.resolve(path_of("/nothing/here"), create=False) is None

    def test_path_of_roundtrip(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/a/b/c"))
        assert fs.path_of(node) == "/a/b/c"


class TestFacts:
    def test_assume_exists(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/etc/passwd"))
        fs.assume_exists(node, NodeKind.FILE)
        assert fs.existence(node) is Existence.EXISTS
        assert fs.kind(node) is NodeKind.FILE
        parent = fs.resolve(path_of("/etc"))
        assert fs.existence(parent) is Existence.EXISTS
        assert fs.kind(parent) is NodeKind.DIR

    def test_assume_exists_after_delete_contradicts(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/data"))
        fs.assume_exists(node, NodeKind.DIR)
        fs.delete(node, recursive=True)
        with pytest.raises(FsContradiction):
            fs.assume_exists(node)

    def test_child_of_deleted_dir_contradicts(self):
        # §4's snippet: rm -fr $1; cat $1/config
        store = ConstraintStore()
        v = store.fresh(label="$1")
        fs = FileSystem()
        target = fs.resolve(parse_sympath(SymString.var(v)))
        fs.assume_exists(target)
        fs.delete(target, recursive=True)
        config = fs.resolve(parse_sympath(SymString.var(v) + SymString.lit("/config")))
        with pytest.raises(FsContradiction):
            fs.read_file(config)

    def test_kind_conflict(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/thing"))
        fs.assume_exists(node, NodeKind.DIR)
        with pytest.raises(FsContradiction):
            fs.assume_exists(node, NodeKind.FILE)

    def test_file_used_as_directory(self):
        fs = FileSystem()
        f = fs.resolve(path_of("/etc/passwd"))
        fs.assume_exists(f, NodeKind.FILE)
        sub = fs.resolve(path_of("/etc/passwd/sub"))
        with pytest.raises(FsContradiction):
            fs.assume_exists(sub)

    def test_assume_absent_conflict(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/x"))
        fs.assume_exists(node)
        with pytest.raises(FsContradiction):
            fs.assume_absent(node)


class TestMutations:
    def test_create_file(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/tmp/out"))
        fs.assume_exists(fs.resolve(path_of("/tmp")), NodeKind.DIR)
        fs.create(node, NodeKind.FILE)
        assert fs.existence(node) is Existence.EXISTS

    def test_create_under_absent_parent_fails(self):
        fs = FileSystem()
        parent = fs.resolve(path_of("/gone"))
        fs.assume_exists(parent)
        fs.delete(parent)
        child = fs.resolve(path_of("/gone/file"))
        with pytest.raises(FsContradiction):
            fs.create(child, NodeKind.FILE)

    def test_mkdir_p_creates_parents(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/a/b/c"))
        fs.create(node, NodeKind.DIR, ensure_parents=True)
        assert fs.existence(fs.resolve(path_of("/a/b"))) is Existence.EXISTS

    def test_recursive_delete_marks_subtree(self):
        fs = FileSystem()
        top = fs.resolve(path_of("/data"))
        leaf = fs.resolve(path_of("/data/sub/file"))
        fs.assume_exists(leaf, NodeKind.FILE)
        fs.delete(top, recursive=True)
        assert fs.existence(leaf) is Existence.ABSENT

    def test_write_directory_fails(self):
        fs = FileSystem()
        d = fs.resolve(path_of("/dir"))
        fs.assume_exists(d, NodeKind.DIR)
        with pytest.raises(FsContradiction):
            fs.write_file(d)

    def test_recreate_after_delete(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/tmp/f"))
        fs.assume_exists(node, NodeKind.FILE)
        fs.delete(node)
        fs.create(node, NodeKind.FILE)  # parent /tmp still exists
        assert fs.existence(node) is Existence.EXISTS


class TestForkAndLog:
    def test_fork_isolation(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/shared"))
        fs.assume_exists(node)
        forked = fs.fork()
        forked.delete(node)
        assert fs.existence(node) is Existence.EXISTS
        assert forked.existence(node) is Existence.ABSENT

    def test_event_log_records(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/f"))
        fs.assume_exists(node, NodeKind.FILE)
        fs.read_file(node)
        fs.delete(node)
        ops = [e.op for e in fs.log]
        assert FsOp.READ in ops and FsOp.DELETE in ops

    def test_reads_writes_split(self):
        fs = FileSystem()
        node = fs.resolve(path_of("/f"))
        fs.write_file(node)
        assert fs.log.writes()
