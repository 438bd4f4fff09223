"""File-system event traces with command provenance.

Every mutation and observation of the symbolic file system is recorded
as an event.  Traces serve three masters: the miner's instrumented
probing (§3, Fig. 4 "instrument and execute all command invocations"),
the read/write dependency analysis enabling optimisation (§5), and the
effect-graph hazard analysis over ``&``/``wait`` concurrency.

Each event carries an :class:`Origin` — which command caused it — and a
``task`` id: 0 for the foreground script, or the region id of the
background job (``cmd &``) that produced it.  Region lifetimes are
delimited in the trace itself by ``BG_OPEN``/``BG_CLOSE`` marker events,
so a consumer can reconstruct which accesses were interleavable.

Logs fork in O(1): the shared prefix is kept as a chain of immutable,
sealed segments; only a small open tail is owned by any one log.  A
naive per-fork copy made heavy scripts O(events x forks).
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Iterator, List, Optional

from ..records import FrozenRecord, set_field


class FsOp(Enum):
    STAT = auto()        # existence/kind observed
    READ = auto()        # file contents read
    WRITE = auto()       # file contents written/created
    CREATE = auto()      # node created
    DELETE = auto()      # node removed
    CHDIR = auto()       # working directory changed
    LIST = auto()        # directory listed
    BG_OPEN = auto()     # a background region opened (cmd &)
    BG_CLOSE = auto()    # a background region closed (wait / join)

    @property
    def is_marker(self) -> bool:
        return self in (FsOp.BG_OPEN, FsOp.BG_CLOSE)


class Origin(FrozenRecord):
    """Provenance of an event: the command that caused it.

    ``label`` is a short source rendering (``grep x f``); ``pos`` is the
    command's :class:`~repro.shell.tokens.Position` (kept opaque here so
    the fs layer stays independent of the shell front end).
    """

    __slots__ = ("label", "pos")

    def __init__(self, label: str = "", pos: Optional[object] = None):
        set_field(self, "label", label)
        set_field(self, "pos", pos)

    def where(self) -> str:
        return f"{self.pos}" if self.pos is not None else "?"

    def describe(self) -> str:
        if self.pos is not None:
            return f"`{self.label}` ({self.pos})"
        return f"`{self.label}`"


class FsEvent(FrozenRecord):
    """``origin`` is the command this event belongs to (None for
    untagged/legacy events); ``task`` is 0 for the foreground, otherwise
    the background region id that ran it; ``region``, for
    BG_OPEN/BG_CLOSE markers, is the region being opened/closed."""

    __slots__ = ("op", "path", "node", "detail", "origin", "task", "region")

    def __init__(
        self,
        op: FsOp,
        path: str,
        node: Optional[int] = None,
        detail: str = "",
        origin: Optional[Origin] = None,
        task: int = 0,
        region: Optional[int] = None,
    ):
        set_field(self, "op", op)
        set_field(self, "path", path)
        set_field(self, "node", node)
        set_field(self, "detail", detail)
        set_field(self, "origin", origin)
        set_field(self, "task", task)
        set_field(self, "region", region)

    def __str__(self) -> str:
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.op.name.lower()} {self.path}{extra}"


class _Segment:
    """An immutable, sealed run of events plus a link to earlier runs."""

    __slots__ = ("events", "parent", "cum_len")

    def __init__(self, events: List[FsEvent], parent: Optional["_Segment"]):
        self.events = events
        self.parent = parent
        self.cum_len = len(events) + (parent.cum_len if parent is not None else 0)


_READ_OPS = (FsOp.READ, FsOp.STAT, FsOp.LIST)
_WRITE_OPS = (FsOp.WRITE, FsOp.CREATE, FsOp.DELETE)


class EventLog:
    """An append-only trace; forked logs share their prefix structurally.

    ``fork()`` seals the current tail into an immutable segment and hands
    the child a reference to the segment chain — O(1) regardless of how
    many events were recorded, where the previous implementation copied
    the whole list per fork (O(n·forks) across a run).
    """

    __slots__ = ("_head", "_tail", "origin", "task", "journal")

    def __init__(self, events: Optional[List[FsEvent]] = None):
        self._head: Optional[_Segment] = None
        self._tail: List[FsEvent] = list(events) if events else []
        #: sticky provenance: stamped onto every recorded event
        self.origin: Optional[Origin] = None
        #: the task (0 = foreground, else region id) recording right now
        self.task: int = 0
        #: when set, a list every fork of this log also records into, so
        #: its owner sees the events of forks a merge has dropped
        self.journal: Optional[List[FsEvent]] = None

    # -- recording ----------------------------------------------------------

    def record(
        self, op: FsOp, path: str, node: Optional[int] = None, detail: str = ""
    ) -> None:
        event = FsEvent(op, path, node, detail, origin=self.origin, task=self.task)
        self._tail.append(event)
        if self.journal is not None:
            self.journal.append(event)

    def set_origin(self, origin: Optional[Origin]) -> None:
        self.origin = origin

    def open_region(self, region: int, label: str = "", origin: Optional[Origin] = None) -> None:
        """Mark the start of a background region (``cmd &``)."""
        self._tail.append(
            FsEvent(
                FsOp.BG_OPEN, "", None, label,
                origin=origin or self.origin, task=self.task, region=region,
            )
        )

    def close_region(self, region: int, label: str = "") -> None:
        """Mark a region as joined (``wait`` reached, ordering restored)."""
        self._tail.append(
            FsEvent(
                FsOp.BG_CLOSE, "", None, label,
                origin=self.origin, task=self.task, region=region,
            )
        )

    # -- forking ------------------------------------------------------------

    def _seal(self) -> None:
        if self._tail:
            self._head = _Segment(self._tail, self._head)
            self._tail = []

    def fork(self) -> "EventLog":
        self._seal()
        child = EventLog.__new__(EventLog)
        child._head = self._head
        child._tail = []
        child.origin = self.origin
        child.task = self.task
        child.journal = self.journal
        return child

    # -- views --------------------------------------------------------------

    @property
    def events(self) -> List[FsEvent]:
        """The full trace, materialised (prefer iteration)."""
        return list(self)

    def reads(self) -> List[FsEvent]:
        return [e for e in self if e.op in _READ_OPS]

    def writes(self) -> List[FsEvent]:
        return [e for e in self if e.op in _WRITE_OPS]

    def __len__(self) -> int:
        return (self._head.cum_len if self._head is not None else 0) + len(self._tail)

    def __iter__(self) -> Iterator[FsEvent]:
        segments: List[List[FsEvent]] = []
        segment = self._head
        while segment is not None:
            segments.append(segment.events)
            segment = segment.parent
        for events in reversed(segments):
            yield from events
        yield from self._tail
