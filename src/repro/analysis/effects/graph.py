"""Per-path effect graphs over the file-system event trace.

One :class:`EffectGraph` summarises a single explored path (one final
``SymState``): every file-system access, attributed to the command that
caused it (its :class:`~repro.fs.Origin`) and to the *task* that ran it
(0 = the foreground script, otherwise the region id of a background
job).  Region lifetimes come from the ``BG_OPEN``/``BG_CLOSE`` markers
the engine writes into the trace: a background job's effects may
interleave with any other-task event whose log index falls inside the
job's open window; ``wait`` closes the window, restoring ordering.

Nodes aggregate the accesses of one command in one task; edges record
the ordering constraints the script *does* establish — program order
within a task (``seq``), launching a job (``fork``), and joining it
(``join``).  Everything not ordered by an edge chain is interleavable,
which is what the hazard detection in :mod:`.hazards` exploits.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Set, Tuple

from ...budget import dfa_state_cap
from ...fs import FsEvent, FsOp, Origin
from ...records import FrozenRecord, Record, set_field
from ...rlang import Regex
from ...symstr import ConstraintStore

#: operations that mutate the file system
WRITE_OPS = frozenset({FsOp.WRITE, FsOp.CREATE, FsOp.DELETE})
#: operations that observe file contents (STAT is kept separate: it only
#: observes metadata, and matters for check-then-use reasoning)
READ_OPS = frozenset({FsOp.READ, FsOp.LIST})

_SYM_SEGMENT = re.compile(r"^<v(-?\d+)>$")
_SYM_ANY = re.compile(r"<v(-?\d+)>")
#: a segment that names an entry of its directory: no symbolic part, no
#: glob, neither ``.`` nor ``..``
_ENTRY_SEGMENT = re.compile(r"(?!\.\.?$)(?:(?!<v)[^*?\[])+")


class Window(FrozenRecord):
    """The open interval of a background region in the event trace
    (``close_idx`` None = never joined, open at exit)."""

    __slots__ = ("region", "label", "origin", "open_idx", "close_idx")

    def __init__(
        self,
        region: int,
        label: str,
        origin: Optional[Origin],
        open_idx: int,
        close_idx: Optional[int] = None,
    ):
        set_field(self, "region", region)
        set_field(self, "label", label)
        set_field(self, "origin", origin)
        set_field(self, "open_idx", open_idx)
        set_field(self, "close_idx", close_idx)

    def covers(self, index: int) -> bool:
        if index < self.open_idx:
            return False
        return self.close_idx is None or index < self.close_idx

    def overlaps(self, lo: int, hi: int) -> bool:
        """Does the window intersect the index interval [lo, hi]?"""
        if hi < self.open_idx:
            return False
        return self.close_idx is None or lo < self.close_idx


class Access(FrozenRecord):
    """One attributed file-system access."""

    __slots__ = ("index", "op", "path", "node", "origin", "task")

    def __init__(
        self,
        index: int,
        op: FsOp,
        path: str,
        node: Optional[int],
        origin: Optional[Origin],
        task: int,
    ):
        set_field(self, "index", index)
        set_field(self, "op", op)
        set_field(self, "path", path)
        set_field(self, "node", node)
        set_field(self, "origin", origin)
        set_field(self, "task", task)

    @property
    def is_write(self) -> bool:
        return self.op in WRITE_OPS

    @property
    def is_read(self) -> bool:
        return self.op in READ_OPS

    def describe(self) -> str:
        who = self.origin.describe() if self.origin else "<unknown command>"
        return f"{who} {self.op.name.lower()}s {display_path(self.path)}"


class EffectNode(Record):
    """All accesses of one command within one task."""

    __slots__ = ("origin", "task", "accesses", "first_index", "last_index")

    def __init__(
        self,
        origin: Optional[Origin],
        task: int,
        accesses: Optional[List[Access]] = None,
        first_index: int = 0,
        last_index: int = 0,
    ):
        self.origin = origin
        self.task = task
        self.accesses = [] if accesses is None else accesses
        self.first_index = first_index
        self.last_index = last_index

    @property
    def reads(self) -> Set[str]:
        return {a.path for a in self.accesses if a.is_read}

    @property
    def writes(self) -> Set[str]:
        return {a.path for a in self.accesses if a.op is FsOp.WRITE}

    @property
    def creates(self) -> Set[str]:
        return {a.path for a in self.accesses if a.op is FsOp.CREATE}

    @property
    def deletes(self) -> Set[str]:
        return {a.path for a in self.accesses if a.op is FsOp.DELETE}

    def label(self) -> str:
        return self.origin.label if self.origin else "?"


class Edge(FrozenRecord):
    __slots__ = ("src", "dst", "kind")

    def __init__(self, src: int, dst: int, kind: str):
        set_field(self, "src", src)
        set_field(self, "dst", dst)
        set_field(self, "kind", kind)  # "seq" | "fork" | "join"


class _PathForm:
    """A trace path split the way :meth:`EffectGraph.path_language`
    reads it: a leading ``/`` (or none) and the non-empty segments.
    ``text`` is the one string the path denotes when no segment is
    ``<vN>``, else None; ``language`` is filled in when first built."""

    __slots__ = ("lead", "segments", "text", "language")

    def __init__(self, path: str):
        self.lead = "/" if path.startswith("/") else ""
        self.segments = [s for s in path.split("/") if s]
        self.text: Optional[str] = None
        if not any(_SYM_SEGMENT.match(s) for s in self.segments):
            self.text = self.lead + "/".join(self.segments)
        self.language: Optional[Regex] = None

    def is_below(self, other: "_PathForm") -> bool:
        """Whether this path names a file strictly below ``other``: the
        same lead and segments, then entry names.  A file is never its
        own descendant, so the two name different files."""
        n = len(other.segments)
        return (
            self.lead == other.lead
            and len(self.segments) > n
            and self.segments[:n] == other.segments
            and all(_ENTRY_SEGMENT.fullmatch(s) for s in self.segments[n:])
        )


class EffectGraph:
    """The effect summary of one explored path."""

    def __init__(
        self,
        accesses: List[Access],
        windows: Dict[int, Window],
        nodes: List[EffectNode],
        edges: List[Edge],
        store: Optional[ConstraintStore] = None,
    ):
        self.accesses = accesses
        self.windows = windows
        self.nodes = nodes
        self.edges = edges
        self.store = store
        #: trace path -> its parsed form (see :meth:`_form`)
        self._forms: Dict[str, _PathForm] = {}
        # Canonical display names for symbolic segments.  Raw trace paths
        # render variables as ``<vN>`` where N comes from a process-global
        # counter — deterministic *identity*, but not a deterministic
        # *rendering*: the same script analyzed twice (or before/after a
        # semantics-preserving rewrite) shows different numbers.  Number
        # the variables per graph in trace order instead, preferring the
        # variable's source label (``$1``, ``$x``) when it has one.
        self._canonical: Dict[int, str] = {}
        for access in accesses:
            for match in _SYM_ANY.finditer(access.path):
                self._canonical_name(int(match.group(1)))

    def _canonical_name(self, vid: int) -> str:
        if vid < 0:
            return f"<v{vid}>"  # abstract roots (e.g. cwd) keep their tag
        name = self._canonical.get(vid)
        if name is None:
            label = ""
            if self.store is not None and vid in self.store:
                label = self.store.label(vid)
            if label and label != f"v{vid}":
                name = f"<{label}>"
            else:
                name = f"<sym{len(self._canonical) + 1}>"
            self._canonical[vid] = name
        return name

    def display(self, path: str) -> str:
        """Human form of a trace path with *stable* symbolic segments:
        per-graph canonical numbering instead of raw allocator ids."""
        renamed = _SYM_ANY.sub(
            lambda m: self._canonical_name(int(m.group(1))), path
        )
        return display_path(renamed)

    # -- concurrency --------------------------------------------------------

    @property
    def open_at_exit(self) -> List[Window]:
        """Regions never joined before the script ended."""
        return [w for w in self.windows.values() if w.close_idx is None]

    def interleavable(self, a: Access, b: Access) -> bool:
        """May the two accesses happen in either order at runtime?

        The trace serialises a background job's effects at launch time;
        in reality they may land anywhere inside the job's region window.
        Two accesses of *different* tasks are interleavable when either
        one's window covers the other's position in the trace.
        """
        if a.task == b.task:
            return False
        for ev, other in ((a, b), (b, a)):
            if ev.task != 0:
                window = self.windows.get(ev.task)
                if window is not None and window.covers(other.index):
                    return True
        return False

    # -- aliasing -----------------------------------------------------------

    def _form(self, path: str) -> "_PathForm":
        form = self._forms.get(path)
        if form is None:
            form = self._forms[path] = _PathForm(path)
        return form

    def path_language(self, path: str) -> Regex:
        """The regular language of concrete paths a trace path denotes.

        Trace paths render symbolic segments as ``<vN>``; each is
        replaced by the constraint language of variable ``N`` (or any
        string when unconstrained, e.g. the abstract cwd root ``<v-1>``),
        literal segments by themselves.
        """
        form = self._form(path)
        if form.language is not None:
            return form.language
        lang = Regex.literal(form.lead)
        first = True
        for segment in form.segments:
            if not first:
                lang = lang + Regex.literal("/")
            match = _SYM_SEGMENT.match(segment)
            if match:
                vid = int(match.group(1))
                if self.store is not None and vid in self.store:
                    lang = lang + self.store.constraint(vid)
                else:
                    lang = lang + Regex.any_string()
            else:
                lang = lang + Regex.literal(segment)
            first = False
        form.language = lang
        return lang

    def may_alias(self, a: Access, b: Access) -> Optional[str]:
        """Do the two accesses touch the same file?

        Returns ``"node"`` when both resolved to the same abstract fs
        node (definite), ``"language"`` when their symbolic path
        languages intersect (possible), or None when they are provably
        distinct files.

        A concrete path's language is its one string, so with a concrete
        side the answer is decided on text: equal spellings, or
        membership in the other side's language.  That skips automata
        only where none of them could trip the DFA-state cap: a concrete
        path's language and each construction on the way to it have at
        most ``len(text) + 2`` states, and a product at most the product
        of its operands' states.  Otherwise the languages and their
        product are built, so a tight cap degrades where it always did.
        """
        if a.node is not None and a.node == b.node:
            return "node"
        if a.path == b.path:
            return "node"
        a_text = self._form(a.path).text
        b_text = self._form(b.path).text
        if a_text is not None or b_text is not None:
            cap = dfa_state_cap()
            if a_text is not None and b_text is not None:
                if (len(a_text) + 2) * (len(b_text) + 2) <= cap:
                    return "language" if a_text == b_text else None
            else:
                text, other = (a_text, b.path) if b_text is None else (b_text, a.path)
                language = self.path_language(other)
                if (len(text) + 2) * language.dfa.n_states <= cap:
                    return "language" if language.matches(text) else None
        intersection = self.path_language(a.path) & self.path_language(b.path)
        if not intersection.is_empty():
            return "language"
        return None

    def nested(self, a: Access, b: Access) -> bool:
        """Does one access's path lie below the other's (``<v-1>`` and
        ``<v-1>/b``)?  Then they name a directory and a file in it, two
        files, whatever the symbolic prefix denotes; their languages,
        built apart, may still intersect."""
        a_form, b_form = self._form(a.path), self._form(b.path)
        return a_form.is_below(b_form) or b_form.is_below(a_form)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        lines = []
        for idx, node in enumerate(self.nodes):
            task = "fg" if node.task == 0 else f"bg#{node.task}"
            summary = []
            if node.reads:
                summary.append("reads " + ",".join(sorted(map(self.display, node.reads))))
            if node.writes | node.creates:
                summary.append(
                    "writes "
                    + ",".join(sorted(map(self.display, node.writes | node.creates)))
                )
            if node.deletes:
                summary.append("deletes " + ",".join(sorted(map(self.display, node.deletes))))
            lines.append(f"[{idx}] ({task}) {node.label()}: " + "; ".join(summary))
        for edge in self.edges:
            lines.append(f"    {edge.src} -{edge.kind}-> {edge.dst}")
        return "\n".join(lines)


def display_path(path: str) -> str:
    """Human form of a trace path: hide the abstract cwd root."""
    if path.startswith("<v-1>/"):
        return path[len("<v-1>/"):]
    if path == "<v-1>":
        return "."
    return path


def build_effect_graph(state) -> EffectGraph:
    """Build the effect graph of one final symbolic state."""
    accesses: List[Access] = []
    windows: Dict[int, Window] = {}
    open_markers: Dict[int, FsEvent] = {}
    marker_indices: List[Tuple[int, FsEvent]] = []
    for index, event in enumerate(state.fs.log):
        if event.op is FsOp.BG_OPEN and event.region is not None:
            windows[event.region] = Window(
                region=event.region,
                label=event.detail,
                origin=event.origin,
                open_idx=index,
            )
            marker_indices.append((index, event))
            continue
        if event.op is FsOp.BG_CLOSE and event.region is not None:
            window = windows.get(event.region)
            if window is not None and window.close_idx is None:
                windows[event.region] = Window(
                    region=window.region,
                    label=window.label,
                    origin=window.origin,
                    open_idx=window.open_idx,
                    close_idx=index,
                )
            marker_indices.append((index, event))
            continue
        if event.op is FsOp.CHDIR:
            continue
        accesses.append(
            Access(
                index=index,
                op=event.op,
                path=event.path,
                node=event.node,
                origin=event.origin,
                task=event.task,
            )
        )

    # group accesses into nodes: one per (command, task), in trace order
    nodes: List[EffectNode] = []
    by_key: Dict[Tuple, int] = {}
    for access in accesses:
        origin = access.origin
        key = (
            origin.label if origin else "",
            origin.where() if origin else "?",
            access.task,
        )
        node_idx = by_key.get(key)
        if node_idx is None:
            node_idx = len(nodes)
            by_key[key] = node_idx
            nodes.append(
                EffectNode(
                    origin=origin,
                    task=access.task,
                    first_index=access.index,
                    last_index=access.index,
                )
            )
        node = nodes[node_idx]
        node.accesses.append(access)
        node.last_index = access.index

    edges: List[Edge] = []
    by_task: Dict[int, List[int]] = {}
    for idx, node in enumerate(nodes):
        by_task.setdefault(node.task, []).append(idx)
    for indices in by_task.values():
        for prev, nxt in zip(indices, indices[1:]):
            edges.append(Edge(prev, nxt, "seq"))
    for index, marker in marker_indices:
        region = marker.region
        if region is None:
            continue
        region_nodes = by_task.get(region, [])
        if marker.op is FsOp.BG_OPEN:
            launchers = [
                i for i in by_task.get(marker.task, [])
                if nodes[i].first_index < index
            ]
            if launchers and region_nodes:
                edges.append(Edge(launchers[-1], region_nodes[0], "fork"))
        else:  # BG_CLOSE
            joiners = [
                i for i in by_task.get(marker.task, [])
                if nodes[i].first_index > index
            ]
            if joiners and region_nodes:
                edges.append(Edge(region_nodes[-1], joiners[0], "join"))

    return EffectGraph(
        accesses=accesses,
        windows=windows,
        nodes=nodes,
        edges=edges,
        store=state.store,
    )
