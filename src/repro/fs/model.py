"""Symbolic file system with node identity and tri-state existence.

The model (paper §4 "file system effects") tracks *constraints on the
nodes to which individual paths resolve*.  Nodes have a tri-state
existence (EXISTS / ABSENT / UNKNOWN) and a kind (FILE / DIR / SYMLINK /
UNKNOWN).  Two path occurrences sharing a prefix resolve to the same
node, which is what makes ``rm -fr $1; cat $1/config`` a detectable
contradiction: ``rm`` marks the node for ``$1`` ABSENT, and ``cat``
requires a FILE node *below* it.

States fork cheaply: node records are immutable and replaced on change.
"""

from __future__ import annotations

import itertools
from enum import Enum, auto
from typing import Dict, List, Optional, Tuple

from ..records import FrozenRecord, set_field
from .events import EventLog, FsOp
from .path import Component, SymPath, SymSegment


class Existence(Enum):
    EXISTS = auto()
    ABSENT = auto()
    UNKNOWN = auto()


class NodeKind(Enum):
    FILE = auto()
    DIR = auto()
    SYMLINK = auto()
    UNKNOWN = auto()


class NodeRecord(FrozenRecord):
    """``children`` maps a segment name (str or SymSegment) to a node id;
    for SYMLINK nodes, ``link_target`` is the node the link points at
    (enables §4's "identity of filesystem locations referrable to by
    arbitrarily many path-strings")."""

    __slots__ = ("node_id", "existence", "kind", "children", "parent", "name", "link_target")

    def __init__(
        self,
        node_id: int,
        existence: Existence = Existence.UNKNOWN,
        kind: NodeKind = NodeKind.UNKNOWN,
        children: Tuple[Tuple[Component, int], ...] = (),
        parent: Optional[int] = None,
        name: str = "",
        link_target: Optional[int] = None,
    ):
        set_field(self, "node_id", node_id)
        set_field(self, "existence", existence)
        set_field(self, "kind", kind)
        set_field(self, "children", children)
        set_field(self, "parent", parent)
        set_field(self, "name", name)
        set_field(self, "link_target", link_target)

    def with_state(self, existence: Existence, kind: Optional[NodeKind] = None) -> "NodeRecord":
        """This record with a new existence (and kind, when given)."""
        return NodeRecord(
            self.node_id, existence, self.kind if kind is None else kind,
            self.children, self.parent, self.name, self.link_target,
        )

    def child_map(self) -> Dict[Component, int]:
        return dict(self.children)


class FsContradiction(Exception):
    """An operation's precondition conflicts with established fs facts."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


_node_ids = itertools.count(100)


class FileSystem:
    """A forkable symbolic file system."""

    ROOT = 1

    def __init__(
        self,
        nodes: Optional[Dict[int, NodeRecord]] = None,
        sym_roots: Optional[Dict[int, int]] = None,
        log: Optional[EventLog] = None,
        denied: Optional[Dict[int, frozenset]] = None,
        paths: Optional[Dict[int, str]] = None,
    ):
        if nodes is None:
            nodes = {
                self.ROOT: NodeRecord(
                    self.ROOT,
                    existence=Existence.EXISTS,
                    kind=NodeKind.DIR,
                    name="/",
                )
            }
        self.nodes: Dict[int, NodeRecord] = dict(nodes)
        #: variable id -> abstract root node for paths like ``$1/...``
        self.sym_roots: Dict[int, int] = dict(sym_roots or {})
        self.log = log if log is not None else EventLog()
        #: node id -> kinds the node was observed *not* to be on this
        #: path (a failed ``[ -d X ]`` denies DIR without pinning
        #: absence — X may still exist as a file).  Weaker than
        #: tri-state existence, but enough for guard reasoning.
        self.denied: Dict[int, frozenset] = dict(denied or {})
        #: node id -> :meth:`path_of`, one map shared by this file
        #: system's forks: node ids are never reused, and no record
        #: replacement changes a node's name or parent
        self._paths: Dict[int, str] = paths if paths is not None else {}

    def fork(self) -> "FileSystem":
        return FileSystem(
            self.nodes, self.sym_roots, self.log.fork(), self.denied, self._paths
        )

    def same_facts(self, other: "FileSystem") -> bool:
        """Do both file systems hold the same nodes and facts?  (Their
        event logs are not compared.)"""
        return (
            self.nodes == other.nodes
            and self.sym_roots == other.sym_roots
            and self.denied == other.denied
        )

    # -- node bookkeeping ---------------------------------------------------

    def _get(self, node_id: int) -> NodeRecord:
        return self.nodes[node_id]

    def _set(self, record: NodeRecord) -> None:
        self.nodes[record.node_id] = record

    def _new_node(self, parent: Optional[int], name: str) -> NodeRecord:
        record = NodeRecord(next(_node_ids), parent=parent, name=name)
        self._set(record)
        return record

    def _child(self, parent_id: int, name: Component, create: bool = True) -> Optional[int]:
        parent = self._get(parent_id)
        # a directory has few children: scan them rather than build a dict
        for child_name, child_id in parent.children:
            if child_name == name:
                return child_id
        if not create:
            return None
        child = self._new_node(parent_id, str(name))
        self._set(NodeRecord(
            parent.node_id, parent.existence, parent.kind,
            parent.children + ((name, child.node_id),),
            parent.parent, parent.name, parent.link_target,
        ))
        return child.node_id

    def sym_root(self, vid: int) -> int:
        if vid not in self.sym_roots:
            record = self._new_node(None, f"<v{vid}>")
            self.sym_roots[vid] = record.node_id
        return self.sym_roots[vid]

    # -- resolution ------------------------------------------------------------

    def resolve(
        self, path: SymPath, cwd: Optional[int] = None, create: bool = True
    ) -> Optional[int]:
        """The node a path resolves to (creating UNKNOWN placeholders).

        ``cwd`` is the node of the current working directory for relative
        paths; None means an unknown cwd, modelled as a shared abstract
        node.
        """
        if path.sym_rooted:
            current = self.sym_root(path.components[0].vid)  # type: ignore[union-attr]
            rest = path.components[1:]
        elif path.absolute:
            current = self.ROOT
            rest = path.components
        else:
            current = cwd if cwd is not None else self.sym_root(-1)
            rest = path.components
        for component in rest:
            current = self._follow_links(current)
            nxt = self._child(current, component, create=create)
            if nxt is None:
                return None
            current = nxt
        return current

    def _follow_links(self, node_id: int, limit: int = 8) -> int:
        """Chase symlink targets (bounded against cycles)."""
        current = node_id
        for _ in range(limit):
            record = self._get(current)
            if record.kind is not NodeKind.SYMLINK or record.link_target is None:
                return current
            current = record.link_target
        return current

    def resolve_final(self, path: SymPath, cwd: Optional[int] = None) -> Optional[int]:
        """Like :meth:`resolve`, but also follows a symlink at the final
        component (the `realpath` reading of a path)."""
        node = self.resolve(path, cwd=cwd)
        if node is None:
            return None
        return self._follow_links(node)

    def make_symlink(self, node_id: int, target_id: int) -> None:
        """Record that ``node_id`` is a symlink to ``target_id``."""
        record = self._get(node_id)
        self._set(NodeRecord(
            record.node_id, Existence.EXISTS, NodeKind.SYMLINK, record.children,
            record.parent, record.name, target_id,
        ))
        self.log.record(
            FsOp.CREATE, self.path_of(node_id), node_id,
            f"symlink -> {self.path_of(target_id)}",
        )

    def path_of(self, node_id: int) -> str:
        path = self._paths.get(node_id)
        if path is None:
            path = self._paths[node_id] = self._walk_path(node_id)
        return path

    def _walk_path(self, node_id: int) -> str:
        parts: List[str] = []
        current: Optional[int] = node_id
        while current is not None:
            record = self._get(current)
            if record.name == "/":
                return "/" + "/".join(reversed(parts))
            parts.append(record.name)
            current = record.parent
        return "/".join(reversed(parts))

    # -- facts -------------------------------------------------------------------

    def existence(self, node_id: int) -> Existence:
        """Effective existence: ABSENT propagates downward from ancestors."""
        record = self._get(node_id)
        if record.existence is Existence.ABSENT:
            return Existence.ABSENT
        current = record.parent
        while current is not None:
            parent = self._get(current)
            if parent.existence is Existence.ABSENT:
                return Existence.ABSENT
            current = parent.parent
        return record.existence

    def kind(self, node_id: int) -> NodeKind:
        return self._get(node_id).kind

    def deny_kind(self, node_id: int, kind: NodeKind) -> None:
        """Record that the node is not of the given kind here (e.g. a
        failed ``[ -d X ]``: X is absent or a non-directory)."""
        self.denied[node_id] = self.denied.get(node_id, frozenset()) | {kind}

    def kind_denied(self, node_id: int, kind: NodeKind) -> bool:
        return kind in self.denied.get(node_id, frozenset())

    # -- assumptions (preconditions observed to hold) ------------------------------

    def assume_exists(self, node_id: int, kind: NodeKind = NodeKind.UNKNOWN) -> None:
        """Record that a node exists (and ancestors are directories).

        Raises :class:`FsContradiction` when facts already deny it —
        that's the "always fails" signal of §4.
        """
        record = self._get(node_id)
        if self.existence(node_id) is Existence.ABSENT:
            raise FsContradiction(
                f"path {self.path_of(node_id)} cannot exist here: it (or an "
                "ancestor) was deleted or known absent",
                self.path_of(node_id),
            )
        if (
            kind is not NodeKind.UNKNOWN
            and record.kind is not NodeKind.UNKNOWN
            and record.kind is not kind
        ):
            raise FsContradiction(
                f"{self.path_of(node_id)} is a {record.kind.name.lower()}, "
                f"not a {kind.name.lower()}",
                self.path_of(node_id),
            )
        new_kind = kind if record.kind is NodeKind.UNKNOWN else record.kind
        self._set(record.with_state(Existence.EXISTS, new_kind))
        self.log.record(FsOp.STAT, self.path_of(node_id), node_id, "exists")
        # ancestors must be existing directories
        current = record.parent
        while current is not None:
            parent = self._get(current)
            if parent.kind is NodeKind.FILE:
                raise FsContradiction(
                    f"{self.path_of(current)} is a file but is used as a directory",
                    self.path_of(current),
                )
            self._set(parent.with_state(
                Existence.EXISTS,
                NodeKind.DIR if parent.kind is NodeKind.UNKNOWN else parent.kind,
            ))
            current = parent.parent

    def assume_absent(self, node_id: int) -> None:
        record = self._get(node_id)
        if self.existence(node_id) is Existence.EXISTS:
            raise FsContradiction(
                f"path {self.path_of(node_id)} is known to exist",
                self.path_of(node_id),
            )
        self._set(record.with_state(Existence.ABSENT))
        self.log.record(FsOp.STAT, self.path_of(node_id), node_id, "absent")

    # -- mutations ----------------------------------------------------------------

    def create(
        self, node_id: int, kind: NodeKind, ensure_parents: bool = False
    ) -> None:
        """Create (or truncate) a node; parents must exist unless
        ``ensure_parents`` (mkdir -p semantics)."""
        record = self._get(node_id)
        parent = record.parent
        if parent is not None:
            if self.existence(parent) is Existence.ABSENT:
                if not ensure_parents:
                    raise FsContradiction(
                        f"cannot create {self.path_of(node_id)}: parent "
                        f"{self.path_of(parent)} does not exist",
                        self.path_of(node_id),
                    )
                self.create(parent, NodeKind.DIR, ensure_parents=True)
            elif ensure_parents and self._get(parent).existence is not Existence.EXISTS:
                self.create(parent, NodeKind.DIR, ensure_parents=True)
        already = record.existence is Existence.EXISTS
        self._set(record.with_state(Existence.EXISTS, kind))
        if not already:
            self.log.record(
                FsOp.CREATE, self.path_of(node_id), node_id, kind.name.lower()
            )

    def delete(self, node_id: int, recursive: bool = False) -> None:
        """Mark a node (and, recursively, its subtree) absent."""
        record = self._get(node_id)
        if recursive:
            for _, child_id in record.children:
                self.delete(child_id, recursive=True)
        self._set(record.with_state(Existence.ABSENT))
        self.log.record(FsOp.DELETE, self.path_of(node_id), node_id)

    def write_file(self, node_id: int) -> None:
        record = self._get(node_id)
        if record.kind is NodeKind.DIR:
            raise FsContradiction(
                f"{self.path_of(node_id)} is a directory; cannot write it",
                self.path_of(node_id),
            )
        self.create(node_id, NodeKind.FILE)
        self.log.record(FsOp.WRITE, self.path_of(node_id), node_id)

    def read_file(self, node_id: int) -> None:
        """Record a read; the file must exist (or be assumable)."""
        self.assume_exists(node_id, NodeKind.FILE)
        self.log.record(FsOp.READ, self.path_of(node_id), node_id)

    # -- queries -----------------------------------------------------------------

    def children_of(self, node_id: int) -> Dict[Component, int]:
        return self._get(node_id).child_map()

    def snapshot(self) -> Dict[str, Tuple[Existence, NodeKind]]:
        """Concrete-path view of all known facts (testing/probing aid)."""
        result = {}
        for node_id, record in self.nodes.items():
            result[self.path_of(node_id)] = (self.existence(node_id), record.kind)
        return result
