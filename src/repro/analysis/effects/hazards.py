"""File-system race detection over an effect graph.

Two accesses conflict when they are *interleavable* (different tasks,
and one falls inside the other's background region window), at least one
is a write, and they *may alias* (same abstract fs node, or intersecting
symbolic path languages).  Four diagnostic classes:

- ``race-write-write``: two interleavable writes to one file
- ``race-read-write``: a read interleavable with a write
- ``race-missing-wait``: the foreground reads a file a background job
  writes, and the job is never ``wait``-ed for
- ``race-toctou``: a check (stat) and a use by different foreground
  commands straddle a window in which a background job may rewrite the
  checked file

All are "may" findings: the analysis cannot prove the interleaving
happens, only that no ordering in the script prevents it.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from ...fs import FsOp
from ...records import FrozenRecord, set_field
from .graph import Access, EffectGraph, display_path

#: cap on reported hazards per explored path; belt-and-braces against
#: pathological scripts with hundreds of interleavable accesses
MAX_HAZARDS_PER_PATH = 64

#: devices with no contents to race on: a read returns nothing (or
#: zeros) and a write is discarded, whatever runs beside it
STATELESS_DEVICES = frozenset({"/dev/null", "/dev/zero"})


class Hazard(FrozenRecord):
    __slots__ = ("code", "message", "pos", "related", "path", "witness")

    def __init__(
        self,
        code: str,
        message: str,
        pos: Optional[object],
        related: Tuple[str, ...],
        path: str,
        witness: str = "",
    ):
        set_field(self, "code", code)
        set_field(self, "message", message)
        set_field(self, "pos", pos)
        set_field(self, "related", related)
        set_field(self, "path", path)
        set_field(self, "witness", witness)

    def key(self) -> Tuple:
        return (self.code, self.path, frozenset(self.related))


def _describe(access: Access) -> str:
    if access.origin is not None:
        return access.origin.describe()
    return "<unknown command>"


def _anchor(a: Access, b: Access) -> Access:
    """The access to anchor the diagnostic at: prefer the foreground
    one (that is the line the reader will edit), then the later one."""
    for access in (b, a):
        if access.task == 0 and access.origin is not None and access.origin.pos:
            return access
    return b if b.origin is not None else a


def find_hazards(graph: EffectGraph) -> List[Hazard]:
    """All race-family hazards of one explored path."""
    if not graph.windows:
        return []
    hazards: List[Hazard] = []
    seen: Set[Tuple] = set()

    def add(hazard: Hazard) -> None:
        if hazard.key() not in seen and len(hazards) < MAX_HAZARDS_PER_PATH:
            seen.add(hazard.key())
            hazards.append(hazard)

    # the pair loop is quadratic: classify each access once, before it.
    # Metadata checks (STAT) feed the TOCTOU rule only; the pair rule
    # sees the reads and writes, each with whether it writes
    material: List[Access] = []
    contents: List[Tuple[Access, bool]] = []
    for access in graph.accesses:
        if access.path in STATELESS_DEVICES:
            continue
        if access.op is FsOp.STAT:
            material.append(access)
            continue
        write = access.is_write
        if write or access.is_read:
            material.append(access)
            contents.append((access, write))

    for i, (a, a_write) in enumerate(contents):
        for b, b_write in contents[i + 1:]:
            if not (a_write or b_write):
                continue
            if not graph.interleavable(a, b):
                continue
            if graph.may_alias(a, b) is None:
                continue
            shown = graph.display(b.path if b.task == 0 else a.path)
            anchor = _anchor(a, b)
            related = (_describe(a), _describe(b))
            if a_write and b_write:
                add(Hazard(
                    code="race-write-write",
                    message=(
                        f"{_describe(a)} and {_describe(b)} may run "
                        f"concurrently and both write `{shown}`; the final "
                        "contents depend on scheduling"
                    ),
                    pos=anchor.origin.pos if anchor.origin else None,
                    related=related,
                    path=shown,
                ))
            else:
                reader, writer = (a, b) if b_write else (b, a)
                add(Hazard(
                    code="race-read-write",
                    message=(
                        f"{_describe(reader)} reads `{shown}` while "
                        f"{_describe(writer)} may still be "
                        f"{_op_verb(writer.op)} it in the background"
                    ),
                    pos=anchor.origin.pos if anchor.origin else None,
                    related=related,
                    path=shown,
                ))
                _check_missing_wait(graph, reader, writer, shown, add)

    _find_toctou(graph, material, add)
    return hazards


def _op_verb(op: FsOp) -> str:
    return {
        FsOp.WRITE: "writing",
        FsOp.CREATE: "creating",
        FsOp.DELETE: "deleting",
    }.get(op, "modifying")


def _check_missing_wait(graph, reader: Access, writer: Access, shown, add) -> None:
    """The reader runs in the foreground after a background writer whose
    region is never joined: a `wait` in between would fix the ordering."""
    if reader.task != 0 or writer.task == 0:
        return
    window = graph.windows.get(writer.task)
    if window is None or window.close_idx is not None:
        return
    if reader.index <= window.open_idx:
        return
    add(Hazard(
        code="race-missing-wait",
        message=(
            f"{_describe(reader)} reads `{shown}` produced by background "
            f"job {_describe(writer)}, but no `wait` joins the job first; "
            "the file may be missing or incomplete"
        ),
        pos=reader.origin.pos if reader.origin else None,
        related=(_describe(writer), _describe(reader)),
        path=shown,
        witness="insert `wait` before the read",
    ))


def _find_toctou(graph: EffectGraph, material: List[Access], add) -> None:
    """Check-then-use straddling a background writer's window."""
    checks = [a for a in material if a.op is FsOp.STAT and a.task == 0]
    uses = [a for a in material if a.task == 0 and (a.is_read or a.is_write)]
    bg_writes = [a for a in material if a.task != 0 and a.is_write]
    if not checks or not uses or not bg_writes:
        return
    for check in checks:
        for use in uses:
            if use.index <= check.index:
                continue
            if check.origin is not None and use.origin is not None \
                    and check.origin == use.origin:
                continue  # a command's own stat+read is not a check/use pair
            # a check of a directory and a use of a file in it (``touch a``
            # stats ``.``, ``echo > b`` writes ``./b``) are not one file
            if graph.nested(check, use) or graph.may_alias(check, use) is None:
                continue
            for writer in bg_writes:
                window = graph.windows.get(writer.task)
                if window is None:
                    continue
                if not window.overlaps(check.index, use.index):
                    continue
                if graph.may_alias(check, writer) is None:
                    continue
                shown = graph.display(check.path)
                add(Hazard(
                    code="race-toctou",
                    message=(
                        f"{_describe(check)} checks `{shown}` and "
                        f"{_describe(use)} then uses it, but background job "
                        f"{_describe(writer)} may modify it between the "
                        "check and the use"
                    ),
                    pos=use.origin.pos if use.origin else None,
                    related=(
                        _describe(check), _describe(use), _describe(writer)
                    ),
                    path=shown,
                ))
                break
