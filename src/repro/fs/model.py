"""Symbolic file system with node identity and tri-state existence.

The model (paper §4 "file system effects") tracks *constraints on the
nodes to which individual paths resolve*.  Nodes have a tri-state
existence (EXISTS / ABSENT / UNKNOWN) and a kind (FILE / DIR / SYMLINK /
UNKNOWN).  Two path occurrences sharing a prefix resolve to the same
node, which is what makes ``rm -fr $1; cat $1/config`` a detectable
contradiction: ``rm`` marks the node for ``$1`` ABSENT, and ``cat``
requires a FILE node *below* it.

States fork cheaply: a fork copies only its map of node facts, whose
records are immutable and replaced on change; the table that names the
nodes is shared by every fork of a run.
"""

from __future__ import annotations

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
    """One fork's facts about a node: existence, kind and, for a SYMLINK,
    the node the link points at (enables §4's "identity of filesystem
    locations referrable to by arbitrarily many path-strings").  Where
    the node sits in the tree is the :class:`NodeTable`'s business."""

    __slots__ = ("existence", "kind", "link_target")

    def __init__(
        self,
        existence: Existence = Existence.UNKNOWN,
        kind: NodeKind = NodeKind.UNKNOWN,
        link_target: Optional[int] = None,
    ):
        set_field(self, "existence", existence)
        set_field(self, "kind", kind)
        set_field(self, "link_target", link_target)

    def with_state(self, existence: Existence, kind: Optional[NodeKind] = None) -> "NodeRecord":
        """This record with a new existence (and kind, when given)."""
        return NodeRecord(existence, self.kind if kind is None else kind, self.link_target)


#: what a fork knows of a node it has resolved and nothing more
PLACEHOLDER = NodeRecord()
_ROOT_RECORD = NodeRecord(Existence.EXISTS, NodeKind.DIR)


def _join_records(a: NodeRecord, b: NodeRecord) -> NodeRecord:
    """The facts that hold of a node on both forks' paths: a fact the
    records disagree on is UNKNOWN, and an ABSENT side's kind and link
    target do not count."""
    if a == b:
        return a
    existence = a.existence if a.existence is b.existence else Existence.UNKNOWN
    if a.existence is Existence.ABSENT and b.existence is not Existence.ABSENT:
        kind, target = b.kind, b.link_target
    elif b.existence is Existence.ABSENT and a.existence is not Existence.ABSENT:
        kind, target = a.kind, a.link_target
    else:
        kind = a.kind if a.kind is b.kind else NodeKind.UNKNOWN
        target = a.link_target if a.link_target == b.link_target else None
    if existence is Existence.UNKNOWN and kind is NodeKind.UNKNOWN and target is None:
        return PLACEHOLDER
    return NodeRecord(existence, kind, target)


class FsContradiction(Exception):
    """An operation's precondition conflicts with established fs facts."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class NodeTable:
    """The nodes of one file system's fork family, one per path.

    A node id is interned by (parent id, component), so every fork that
    resolves a path gets the same node; a symbolic root is the child of
    no node (``None``) named ``<vN>`` for its variable id N.  Ids are
    counted per table, and the root is 0.  The table holds what no fork
    can change: each node's parent and name, its children in the order
    they were interned, and :meth:`FileSystem.path_of`.
    """

    __slots__ = ("ids", "parent", "name", "children", "paths")

    def __init__(self):
        self.ids: Dict[Tuple[Optional[int], Component], int] = {}
        self.parent: List[Optional[int]] = [None]
        self.name: List[str] = ["/"]
        self.children: Dict[Optional[int], List[int]] = {}
        self.paths: Dict[int, str] = {}

    def child(self, parent: Optional[int], name: Component) -> int:
        key = (parent, name)
        node_id = self.ids.get(key)
        if node_id is None:
            node_id = self.ids[key] = len(self.parent)
            self.parent.append(parent)
            self.name.append(str(name))
            self.children.setdefault(parent, []).append(node_id)
        return node_id


class FileSystem:
    """A forkable symbolic file system.

    ``nodes`` holds this fork's facts: a node is *known* to the fork when
    it is in ``nodes``, and a node the fork has only resolved holds the
    shared :data:`PLACEHOLDER`.  The :class:`NodeTable` is shared by
    every fork.
    """

    ROOT = 0

    def __init__(
        self,
        nodes: Optional[Dict[int, NodeRecord]] = None,
        log: Optional[EventLog] = None,
        denied: Optional[Dict[int, frozenset]] = None,
        table: Optional[NodeTable] = None,
    ):
        self.table = table if table is not None else NodeTable()
        self.nodes: Dict[int, NodeRecord] = (
            dict(nodes) if nodes is not None else {self.ROOT: _ROOT_RECORD}
        )
        self.log = log if log is not None else EventLog()
        #: node id -> kinds the node was observed *not* to be on this
        #: path (a failed ``[ -d X ]`` denies DIR without pinning
        #: absence — X may still exist as a file).  Weaker than
        #: tri-state existence, but enough for guard reasoning.
        self.denied: Dict[int, frozenset] = dict(denied or {})

    def fork(self) -> "FileSystem":
        return FileSystem(self.nodes, self.log.fork(), self.denied, self.table)

    def join(self, other: "FileSystem") -> None:
        """Widen this fork's facts so they also hold on ``other``'s path,
        node by node (both forks share one table; event logs are not
        joined).  An existence, kind or link target the forks disagree
        on becomes UNKNOWN, but an ABSENT side's kind does not count; a
        node only one fork knows joins with :data:`PLACEHOLDER`; a kind
        stays denied only where both forks deny it.  A node both forks
        record as existing becomes UNKNOWN when an ancestor is absent on
        one side only, so the join's effective existence agrees with
        each fork's or is UNKNOWN."""
        nodes, theirs = self.nodes, other.nodes
        joined: Dict[int, NodeRecord] = {}
        # nodes absent on one side only: what lies below them is unknown
        widened = set()
        for node_id, mine in nodes.items():
            their = theirs.get(node_id)
            if their is None:
                if mine is not PLACEHOLDER:
                    joined[node_id] = PLACEHOLDER
                continue
            if their is mine:
                continue
            record = _join_records(mine, their)
            if record is not mine:
                joined[node_id] = record
            if (mine.existence is Existence.ABSENT) is not (
                their.existence is Existence.ABSENT
            ):
                widened.add(node_id)
        for node_id in theirs:
            if node_id not in nodes:
                joined[node_id] = PLACEHOLDER
        nodes.update(joined)
        if widened:
            parent_of = self.table.parent
            for node_id, record in nodes.items():
                if record.existence is not Existence.EXISTS:
                    continue
                current = parent_of[node_id]
                while current is not None:
                    if current in widened:
                        nodes[node_id] = record.with_state(Existence.UNKNOWN)
                        break
                    current = parent_of[current]
        their_denied = other.denied
        self.denied = {
            node_id: both
            for node_id, kinds in self.denied.items()
            if (both := kinds & their_denied.get(node_id, frozenset()))
        }

    def parent_of(self, node_id: int) -> Optional[int]:
        return self.table.parent[node_id]

    # -- node bookkeeping ---------------------------------------------------

    def _child(self, parent_id: int, name: Component, create: bool = True) -> Optional[int]:
        child = self.table.ids.get((parent_id, name))
        if child is not None and child in self.nodes:
            return child
        if not create:
            return None
        if child is None:
            child = self.table.child(parent_id, name)
        self.nodes[child] = PLACEHOLDER
        return child

    def sym_root(self, vid: int) -> int:
        return self.resolve(SymPath((SymSegment(vid),), absolute=False))  # type: ignore[return-value]

    # -- resolution ------------------------------------------------------------

    def _start(self, path: SymPath, cwd: Optional[int]) -> Tuple[int, Tuple[Component, ...]]:
        if path.sym_rooted:
            root = f"<v{path.components[0].vid}>"  # type: ignore[union-attr]
            return self.table.child(None, root), path.components[1:]
        if path.absolute:
            return self.ROOT, path.components
        return (cwd if cwd is not None else self.table.child(None, "<v-1>")), path.components

    def resolve(
        self, path: SymPath, cwd: Optional[int] = None, create: bool = True
    ) -> Optional[int]:
        """The node a path resolves to (creating UNKNOWN placeholders).

        ``cwd`` is the node of the current working directory for relative
        paths; None means an unknown cwd, modelled as a shared abstract
        node.
        """
        current, rest = self._start(path, cwd)
        if current not in self.nodes:
            self.nodes[current] = PLACEHOLDER
        for component in rest:
            current = self._follow_links(current)
            nxt = self._child(current, component, create=create)
            if nxt is None:
                return None
            current = nxt
        return current

    def lookup(self, path: SymPath, cwd: Optional[int] = None) -> Tuple[Optional[int], Existence]:
        """Resolve without adding a placeholder: the node when this fork
        knows it (else None), and its effective existence.  A node the
        fork does not know reads as a fresh placeholder would: ABSENT
        when its deepest known ancestor is, UNKNOWN otherwise."""
        current, rest = self._start(path, cwd)
        if current not in self.nodes:
            return None, Existence.UNKNOWN
        for component in rest:
            current = self._follow_links(current)
            nxt = self._child(current, component, create=False)
            if nxt is None:  # a placeholder below ``current``
                absent = self.existence(current) is Existence.ABSENT
                return None, Existence.ABSENT if absent else Existence.UNKNOWN
            current = nxt
        return current, self.existence(current)

    def _follow_links(self, node_id: int, limit: int = 8) -> int:
        """Chase symlink targets (bounded against cycles)."""
        current = node_id
        for _ in range(limit):
            record = self.nodes[current]
            if record.kind is not NodeKind.SYMLINK or record.link_target is None:
                return current
            current = record.link_target
        return current

    def resolve_final(self, path: SymPath, cwd: Optional[int] = None) -> Optional[int]:
        """Like :meth:`resolve`, but also follows a symlink at the final
        component (the `realpath` reading of a path)."""
        node = self.resolve(path, cwd=cwd)
        return None if node is None else self._follow_links(node)

    def make_symlink(self, node_id: int, target_id: int) -> None:
        """Record that ``node_id`` is a symlink to ``target_id``."""
        self.nodes[node_id] = NodeRecord(Existence.EXISTS, NodeKind.SYMLINK, target_id)
        self.log.record(
            FsOp.CREATE, self.path_of(node_id), node_id,
            f"symlink -> {self.path_of(target_id)}",
        )

    def path_of(self, node_id: int) -> str:
        paths = self.table.paths
        path = paths.get(node_id)
        if path is None:
            path = paths[node_id] = self._walk_path(node_id)
        return path

    def _walk_path(self, node_id: int) -> str:
        parts: List[str] = []
        parent, name = self.table.parent, self.table.name
        current: Optional[int] = node_id
        while current is not None:
            if current == self.ROOT:
                return "/" + "/".join(reversed(parts))
            parts.append(name[current])
            current = parent[current]
        return "/".join(reversed(parts))

    # -- facts -------------------------------------------------------------------

    def existence(self, node_id: int) -> Existence:
        """Effective existence: ABSENT propagates downward from ancestors."""
        parent, current = self.table.parent, node_id
        while current is not None:
            if self.nodes[current].existence is Existence.ABSENT:
                return Existence.ABSENT
            current = parent[current]
        return self.nodes[node_id].existence

    def kind(self, node_id: int) -> NodeKind:
        return self.nodes[node_id].kind

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
        record = self.nodes[node_id]
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
        self.nodes[node_id] = record.with_state(Existence.EXISTS, new_kind)
        self.log.record(FsOp.STAT, self.path_of(node_id), node_id, "exists")
        # ancestors must be existing directories
        parent_of = self.table.parent
        current = parent_of[node_id]
        while current is not None:
            parent = self.nodes[current]
            if parent.kind is NodeKind.FILE:
                raise FsContradiction(
                    f"{self.path_of(current)} is a file but is used as a directory",
                    self.path_of(current),
                )
            if parent.existence is not Existence.EXISTS or parent.kind is NodeKind.UNKNOWN:
                self.nodes[current] = parent.with_state(
                    Existence.EXISTS,
                    NodeKind.DIR if parent.kind is NodeKind.UNKNOWN else parent.kind,
                )
            current = parent_of[current]

    def assume_absent(self, node_id: int) -> None:
        record = self.nodes[node_id]
        if self.existence(node_id) is Existence.EXISTS:
            raise FsContradiction(
                f"path {self.path_of(node_id)} is known to exist",
                self.path_of(node_id),
            )
        self.nodes[node_id] = record.with_state(Existence.ABSENT)
        self.log.record(FsOp.STAT, self.path_of(node_id), node_id, "absent")

    # -- mutations ----------------------------------------------------------------

    def create(
        self, node_id: int, kind: NodeKind, ensure_parents: bool = False
    ) -> None:
        """Create (or truncate) a node; parents must exist unless
        ``ensure_parents`` (mkdir -p semantics)."""
        record = self.nodes[node_id]
        parent = self.table.parent[node_id]
        if parent is not None:
            if self.existence(parent) is Existence.ABSENT:
                if not ensure_parents:
                    raise FsContradiction(
                        f"cannot create {self.path_of(node_id)}: parent "
                        f"{self.path_of(parent)} does not exist",
                        self.path_of(node_id),
                    )
                self.create(parent, NodeKind.DIR, ensure_parents=True)
            elif ensure_parents and self.nodes[parent].existence is not Existence.EXISTS:
                self.create(parent, NodeKind.DIR, ensure_parents=True)
        already = record.existence is Existence.EXISTS
        self.nodes[node_id] = record.with_state(Existence.EXISTS, kind)
        if not already:
            self.log.record(
                FsOp.CREATE, self.path_of(node_id), node_id, kind.name.lower()
            )

    def delete(self, node_id: int, recursive: bool = False) -> None:
        """Mark a node (and, recursively, the subtree this fork knows)
        absent."""
        record = self.nodes[node_id]
        if recursive:
            for child_id in self.known_children(node_id):
                self.delete(child_id, recursive=True)
        self.nodes[node_id] = record.with_state(Existence.ABSENT)
        self.log.record(FsOp.DELETE, self.path_of(node_id), node_id)

    def write_file(self, node_id: int) -> None:
        record = self.nodes[node_id]
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

    def known_children(self, node_id: int) -> List[int]:
        """The node's children that this fork knows, in interning order."""
        nodes = self.nodes
        return [child for child in self.table.children.get(node_id, ()) if child in nodes]
