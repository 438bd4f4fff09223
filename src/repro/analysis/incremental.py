"""Fragment-level incremental analysis (ROADMAP item 2, first half).

The whole-file result cache answers "has this exact file been analyzed
before?"; this module answers the just-in-time question "which *parts*
of the file still mean what they meant last time?".  A script is split
into **fragments** — each top-level function body, plus the top-level
residue — and every function-body evaluation is memoized as a
:class:`FragmentSummary` keyed by

- ``sha256(fragment_source)`` (with the fragment's start line, so a
  shifted definition re-evaluates and diagnostics keep exact positions),
- the digests of every function transitively callable from the body
  (editing a helper invalidates its callers' summaries, editing an
  unrelated function does not),
- a canonical **entry-state fingerprint** (environment, parameters,
  constraint store, file-system facts, shell options, background
  regions, engine context), and
- the analyzer configuration fingerprint + the cache version salt.

Re-analysis after an edit then re-explores only the fragments whose
digest changed plus their downstream dependents — dependents re-run
naturally because the changed fragment's *effects* alter their entry
fingerprints, and proactively because the :class:`IncrementalSession`
evicts their summaries along the RAW/WAR/WAW edges it derives with the
same dependence machinery as :func:`repro.analysis.deps.analyze_dependencies`.

Byte-identity invariant
-----------------------

A report produced through the memo must be byte-identical to a cold run
(guarded like PR 5/7 guarded server and plan byte-identity).  The two
global id allocators (constraint-store vids, fs node ids) make stored
states unusable verbatim: their raw ids come from a different point of
the process-global counters.  Replay therefore *re-materialises* every
stored post-state into the current run's id space — pre-existing ids map
through the canonical fingerprint order, body-created ids are freshly
allocated in stored creation order — so a replayed state is
indistinguishable from one the engine just computed.  Anything
append-only (diagnostics, notes, stdout chunks, fs events) is stored as
a per-post-state *delta* and rebased onto the current prefix, so an
upstream change that only adds a diagnostic does not cascade misses.

When in doubt the memo **bails** to plain evaluation (dynamic function
bindings, nested function definitions, unsupported provenance payloads):
a lost hit is always sound, a wrong hit never is.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..diag import Diagnostic
from ..fs.events import EventLog, FsEvent
from ..fs.model import FileSystem, NodeRecord, _node_ids
from ..obs import get_recorder
from ..shell import parse as parse_shell
from ..shell.ast import (
    Command,
    FunctionDef,
    Sequence as SeqNode,
    SimpleCommand,
    walk,
)
from ..symex.state import StdoutChunk, SymState
from ..symstr import ConstraintStore, GlobAtom, LitAtom, SymString, VarAtom
from ..symstr.store import _ids as _store_ids
from .cache import FragmentCache, version_salt
from .deps import CommandEffects, _vars_of, derive_dependencies

_WRITE_OPS = ("WRITE", "CREATE", "DELETE")
_READ_OPS = ("READ", "STAT", "LIST")

_SYM_NAME = re.compile(r"<v(-?\d+)>")


class _Unsupported(Exception):
    """The entry state cannot be fingerprinted canonically — bail."""


# ---------------------------------------------------------------------------
# fragment splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fragment:
    """One memoization unit: a top-level function definition."""

    name: str
    #: unique id within the file (two same-named defs get distinct ids)
    frag_id: str
    start_line: int
    end_line: int          # inclusive, 1-based
    digest: str            # sha256 over start line + exact source slice
    calls: frozenset       # concrete command names invoked in the body
    has_defs: bool         # body defines nested functions -> never memoized
    body: Command = field(compare=False, hash=False, repr=False)


@dataclass
class FragmentTable:
    """All fragments of one parsed script plus the residue digest."""

    fragments: List[Fragment]
    residue_digest: str

    def __post_init__(self) -> None:
        self.by_body: Dict[int, Fragment] = {
            id(f.body): f for f in self.fragments
        }
        #: shell-name -> fragment (later top-level definition wins, like
        #: the shell's own binding order at the end of the file)
        self.by_name: Dict[str, Fragment] = {f.name: f for f in self.fragments}

    def digests(self) -> Dict[str, str]:
        data = {f.frag_id: f.digest for f in self.fragments}
        data["<residue>"] = self.residue_digest
        return data


def _called_names(body: Command) -> frozenset:
    """Concrete first words of every command in the subtree.  Dynamic
    command names can never dispatch to a shell function (the engine
    requires a concrete name in ``state.functions``), so this syntactic
    set is an exact over-approximation of callable function names."""
    names: Set[str] = set()
    for node in walk(body):
        if isinstance(node, SimpleCommand):
            name = node.name
            if name:
                names.add(name)
    return frozenset(names)


def split_fragments(source: str, ast: Optional[Command] = None) -> FragmentTable:
    """Split a script into function fragments and the top-level residue.

    Fragment slices are line-based: a fragment owns the lines from its
    ``function`` keyword up to (not including) the next top-level
    command's first line.  The residue hashes every unowned line *with
    its line number* plus a name-only marker per fragment, so renaming,
    reordering, or editing top-level code always changes at least one
    digest.
    """
    if ast is None:
        ast = parse_shell(source)
    tops = list(ast.commands) if isinstance(ast, SeqNode) else [ast]
    lines = source.splitlines()
    boundaries: List[Tuple[int, Command]] = []
    for node in tops:
        pos = getattr(node, "pos", None)
        line = pos.line if pos is not None and pos.line > 0 else None
        boundaries.append((line, node))

    fragments: List[Fragment] = []
    owned: Dict[int, Fragment] = {}
    for idx, (line, node) in enumerate(boundaries):
        if not isinstance(node, FunctionDef) or line is None:
            continue
        end = len(lines)
        for nxt_line, _ in boundaries[idx + 1:]:
            if nxt_line is not None and nxt_line > line:
                end = nxt_line - 1
                break
        slice_text = "\n".join(lines[line - 1:end])
        digest = hashlib.sha256(
            f"{line}:{node.name}\n{slice_text}".encode("utf-8")
        ).hexdigest()
        frag = Fragment(
            name=node.name,
            frag_id=f"{node.name}@{line}",
            start_line=line,
            end_line=end,
            digest=digest,
            calls=_called_names(node.body),
            has_defs=any(
                isinstance(sub, FunctionDef) for sub in walk(node.body)
            ),
            body=node.body,
        )
        fragments.append(frag)
        for owned_line in range(line, end + 1):
            owned.setdefault(owned_line, frag)

    hasher = hashlib.sha256()
    for number, text in enumerate(lines, start=1):
        frag = owned.get(number)
        if frag is None:
            hasher.update(f"{number}:{text}\n".encode("utf-8"))
        elif number == frag.start_line:
            hasher.update(f"{number}:<fragment {frag.name}>\n".encode("utf-8"))
    return FragmentTable(fragments=fragments, residue_digest=hasher.hexdigest())


# ---------------------------------------------------------------------------
# canonical entry-state fingerprints
# ---------------------------------------------------------------------------


class _PreContext:
    """What the fingerprint pass learned about the entry state — reused
    by replay (id mapping, prefix rebasing) and capture (deltas)."""

    __slots__ = (
        "vids", "vid_index", "constraints", "nodes", "node_index",
        "n_diags", "n_notes", "n_stdout", "log_len",
    )

    def __init__(self, state: SymState):
        self.vids: List[int] = []
        self.vid_index: Dict[int, int] = {}
        store = state.store
        for vid in store._constraints:
            self.vid_index[vid] = len(self.vids)
            self.vids.append(vid)
        self.constraints: Dict[int, object] = dict(store._constraints)
        self.nodes: List[int] = []
        self.node_index: Dict[int, int] = {}
        for nid in state.fs.nodes:
            self.node_index[nid] = len(self.nodes)
            self.nodes.append(nid)
        self.n_diags = len(state.diagnostics)
        self.n_notes = len(state.notes)
        self.n_stdout = len(state.stdout)
        self.log_len = len(state.fs.log)


def _regex_fp(regex, cache: Dict[int, tuple]) -> tuple:
    """A structural fingerprint of a Regex: its exact DFA (atoms,
    transition table, accepting set) plus the construction pattern.
    Equal fingerprints mean behaviourally identical objects under every
    deterministic algorithm the engine runs on them — stricter than
    language equality, which is exactly what replay soundness needs."""
    entry = cache.get(id(regex))
    if entry is not None and entry[1] is regex:
        return entry[0]
    dfa = regex._dfa
    fp = (
        regex.pattern,
        tuple(atom.intervals for atom in dfa.atoms),
        tuple(tuple(row) for row in dfa.delta),
        tuple(sorted(dfa.accepting)),
        dfa.start,
    )
    # hold a reference so the id() key cannot be recycled
    cache[id(regex)] = (fp, regex)
    return fp


def _symstr_fp(value: Optional[SymString], vid_index: Dict[int, int]) -> tuple:
    if value is None:
        return ("none",)
    out = []
    for atom in value.atoms:
        if isinstance(atom, LitAtom):
            out.append(("L", atom.text))
        elif isinstance(atom, GlobAtom):
            out.append(("G", atom.char))
        else:
            idx = vid_index.get(atom.vid)
            if idx is None:
                raise _Unsupported(f"unregistered vid {atom.vid}")
            out.append(("V", idx))
    return tuple(out)


def _canon_vid_text(text: str, vid_index: Dict[int, int]) -> str:
    """Rewrite raw ``<vN>`` markers in a path/name to canonical indices
    (negative pseudo-vids — the abstract cwd root — stay literal)."""

    def sub(match: "re.Match") -> str:
        vid = int(match.group(1))
        if vid < 0:
            return match.group(0)
        idx = vid_index.get(vid)
        if idx is None:
            raise _Unsupported(f"unregistered vid {vid} in path")
        return f"<V{idx}>"

    return _SYM_NAME.sub(sub, text)


def _provenance_fp(prov, vid_index: Dict[int, int]) -> tuple:
    if prov is None:
        return ("none",)
    tag, payload = prov
    if payload is None or isinstance(payload, (str, int, bool)):
        return (tag, payload)
    if isinstance(payload, SymString):
        return (tag, _symstr_fp(payload, vid_index))
    raise _Unsupported(f"provenance payload {type(payload).__name__}")


def _component_fp(component, vid_index: Dict[int, int]):
    if isinstance(component, str):
        return ("s", component)
    idx = vid_index.get(component.vid)
    if idx is None:
        if component.vid < 0:
            return ("a", component.vid)
        raise _Unsupported(f"unregistered vid {component.vid} in component")
    return ("v", idx)


def fingerprint_state(engine, state: SymState, regex_cache: Dict[int, tuple]):
    """The canonical entry fingerprint: a hashable tuple such that two
    states with equal fingerprints evaluate any fragment identically and
    produce renderings that are byte-identical after id canonicalisation.

    Raw allocator ids (vids, fs node ids) are replaced by first-seen
    indices in store/fs insertion order — deterministic for identical
    evaluation prefixes, independent of the process-global counters.

    Append-only history (diagnostics, notes, stdout chunks, the fs event
    trace) is deliberately **excluded**: it cannot influence a body's
    evaluation, and replay rebases the stored deltas onto whatever the
    current prefix accumulated.
    """
    ctx = _PreContext(state)
    vid_index = ctx.vid_index
    node_index = ctx.node_index
    store = state.store

    store_rows = tuple(
        (
            _regex_fp(store._constraints[vid], regex_cache),
            store._labels.get(vid, ""),
            _provenance_fp(store._provenance.get(vid), vid_index),
        )
        for vid in ctx.vids
    )

    node_rows = []
    for nid in ctx.nodes:
        rec = state.fs.nodes[nid]
        children = tuple(
            sorted(
                (_component_fp(comp, vid_index), node_index[cid])
                for comp, cid in rec.children
            )
        )
        parent = node_index[rec.parent] if rec.parent is not None else None
        link = (
            node_index[rec.link_target]
            if rec.link_target is not None
            else None
        )
        node_rows.append(
            (
                rec.existence.name,
                rec.kind.name,
                _canon_vid_text(rec.name, vid_index),
                parent,
                link,
                children,
            )
        )

    sym_root_rows = tuple(
        sorted(
            (
                ("a", vid) if vid < 0 else ("v", _require(vid_index, vid)),
                node_index[nid],
            )
            for vid, nid in state.fs.sym_roots.items()
        )
    )
    denied_rows = tuple(
        sorted(
            (node_index[nid], tuple(sorted(k.name for k in kinds)))
            for nid, kinds in state.fs.denied.items()
        )
    )
    log = state.fs.log
    origin_fp = (
        (log.origin.label, str(log.origin.pos))
        if log.origin is not None
        else None
    )

    fp = (
        tuple(sorted(
            (name, _symstr_fp(value, vid_index))
            for name, value in state.env.items()
        )),
        tuple(_symstr_fp(p, vid_index) for p in state.params),
        state.argv_unknown,
        _symstr_fp(state.argc_sym, vid_index),
        _symstr_fp(state.cwd_str, vid_index),
        node_index[state.cwd_node] if state.cwd_node is not None else None,
        state.status,
        state.halted,
        state.depth,
        state.capturing,
        tuple(sorted(state.options)),
        tuple((j.number, j.region, j.label) for j in state.bg_jobs),
        state.bg_launched,
        state.loop_control,
        store_rows,
        tuple(node_rows),
        sym_root_rows,
        denied_rows,
        log.task,
        origin_fp,
        # engine context the body's evaluation can observe
        tuple(sorted(engine.script_assigned)),
        engine._region_counter,
        engine.loop_depth,
        engine._cond_depth,
    )
    return fp, ctx


def _require(mapping: Dict[int, int], key: int) -> int:
    idx = mapping.get(key)
    if idx is None:
        raise _Unsupported(f"unregistered id {key}")
    return idx


# ---------------------------------------------------------------------------
# summaries: capture and replay
# ---------------------------------------------------------------------------


@dataclass
class _StoredState:
    """A value snapshot of one post-state, in the stored run's id space."""

    env: Dict[str, SymString]
    cwd_node: Optional[int]
    cwd_str: SymString
    status: Optional[int]
    halted: bool
    depth: int
    capturing: bool
    options: frozenset
    bg_jobs: tuple
    bg_launched: int
    loop_control: Optional[tuple]
    store_items: List[tuple]          # (vid, constraint, label, provenance)
    fs_nodes: List[Tuple[int, NodeRecord]]
    sym_roots: Dict[int, int]
    denied: Dict[int, frozenset]
    log_origin: object
    log_task: int
    log_delta: List[FsEvent]
    d_diags: List[Diagnostic]
    d_notes: List[str]
    d_stdout: List[StdoutChunk]


@dataclass
class FragmentSummary:
    """Everything needed to replay one function-body evaluation."""

    posts: List[_StoredState]
    pre_vids: tuple
    pre_nodes: tuple
    pre_constraints: Dict[int, object]
    d_explored: int
    d_merged: int
    d_truncations: int
    d_regions: int
    #: ((fragment frag_id, walk index) -> (feasible delta, visit delta))
    tracker_delta: Dict[Tuple[str, int], Tuple[int, int]]
    reads: frozenset
    writes: frozenset


def _snapshot_post(
    st: SymState, ctx: _PreContext
) -> _StoredState:
    store = st.store
    return _StoredState(
        env=dict(st.env),
        cwd_node=st.cwd_node,
        cwd_str=st.cwd_str,
        status=st.status,
        halted=st.halted,
        depth=st.depth,
        capturing=st.capturing,
        options=frozenset(st.options),
        bg_jobs=st.bg_jobs,
        bg_launched=st.bg_launched,
        loop_control=st.loop_control,
        store_items=[
            (
                vid,
                constraint,
                store._labels.get(vid, ""),
                store._provenance.get(vid),
            )
            for vid, constraint in store._constraints.items()
        ],
        fs_nodes=list(st.fs.nodes.items()),
        sym_roots=dict(st.fs.sym_roots),
        denied=dict(st.fs.denied),
        log_origin=st.fs.log.origin,
        log_task=st.fs.log.task,
        log_delta=st.fs.log.since(ctx.log_len),
        d_diags=list(st.diagnostics[ctx.n_diags:]),
        d_notes=list(st.notes[ctx.n_notes:]),
        d_stdout=list(st.stdout[ctx.n_stdout:]),
    )


class _Replayer:
    """Materialise stored post-states into the current run's id space."""

    def __init__(self, summary: FragmentSummary, ctx: _PreContext):
        self.summary = summary
        self.vid_map: Dict[int, int] = {
            old: ctx.vids[idx] for idx, old in enumerate(summary.pre_vids)
        }
        self.node_map: Dict[int, int] = {
            old: ctx.nodes[idx] for idx, old in enumerate(summary.pre_nodes)
        }
        self.ctx = ctx

    def map_vid(self, old: int) -> int:
        cur = self.vid_map.get(old)
        if cur is None:
            # body-created variable: allocate a fresh current-run id, in
            # stored creation order (posts iterate their stores in
            # insertion order), so numbering stays deterministic
            cur = next(_store_ids)
            self.vid_map[old] = cur
        return cur

    def map_node(self, old: int) -> int:
        cur = self.node_map.get(old)
        if cur is None:
            cur = next(_node_ids)
            self.node_map[old] = cur
        return cur

    def remap_symstr(self, value: Optional[SymString]) -> Optional[SymString]:
        if value is None:
            return None
        if not any(isinstance(a, VarAtom) for a in value.atoms):
            return value
        return SymString(
            VarAtom(self.map_vid(a.vid)) if isinstance(a, VarAtom) else a
            for a in value.atoms
        )

    def remap_name(self, text: str) -> str:
        return _SYM_NAME.sub(
            lambda m: (
                m.group(0)
                if int(m.group(1)) < 0
                else f"<v{self.map_vid(int(m.group(1)))}>"
            ),
            text,
        )

    def remap_provenance(self, prov):
        if prov is None:
            return None
        tag, payload = prov
        if isinstance(payload, SymString):
            return (tag, self.remap_symstr(payload))
        return prov

    def rebuild_store(self, sp: _StoredState) -> ConstraintStore:
        store = ConstraintStore()
        pre_objects = self.summary.pre_constraints
        for old_vid, constraint, label, prov in sp.store_items:
            cur = self.map_vid(old_vid)
            if constraint is pre_objects.get(old_vid):
                # unrefined pre-existing variable: share the *current*
                # run's constraint object so downstream identity-based
                # merging behaves exactly as in a cold run
                constraint = self.ctx.constraints[cur]
            store.bind(cur, constraint, label, self.remap_provenance(prov))
        return store

    def rebuild_fs(self, sp: _StoredState, pre_log: EventLog) -> FileSystem:
        nodes: Dict[int, NodeRecord] = {}
        for old_id, rec in sp.fs_nodes:
            nid = self.map_node(old_id)
            nodes[nid] = NodeRecord(
                node_id=nid,
                existence=rec.existence,
                kind=rec.kind,
                children=tuple(
                    (self._remap_component(comp), self.map_node(cid))
                    for comp, cid in rec.children
                ),
                parent=(
                    self.map_node(rec.parent)
                    if rec.parent is not None
                    else None
                ),
                name=self.remap_name(rec.name),
                link_target=(
                    self.map_node(rec.link_target)
                    if rec.link_target is not None
                    else None
                ),
            )
        log = pre_log.fork()
        log.origin = sp.log_origin
        log.task = sp.log_task
        for event in sp.log_delta:
            log._tail.append(
                _dc_replace(
                    event,
                    path=self.remap_name(event.path),
                    node=(
                        self.map_node(event.node)
                        if event.node is not None
                        else None
                    ),
                )
            )
        sym_roots = {
            (vid if vid < 0 else self.map_vid(vid)): self.map_node(nid)
            for vid, nid in sp.sym_roots.items()
        }
        denied = {self.map_node(nid): kinds for nid, kinds in sp.denied.items()}
        fs = FileSystem(nodes=nodes, sym_roots=sym_roots, log=log, denied=denied)
        return fs

    def _remap_component(self, component):
        if isinstance(component, str):
            return component
        if component.vid < 0:
            return component
        return type(component)(self.map_vid(component.vid))

    def materialise(self, sp: _StoredState, state: SymState) -> SymState:
        store = self.rebuild_store(sp)
        fs = self.rebuild_fs(sp, state.fs.log)
        return SymState(
            env={k: self.remap_symstr(v) for k, v in sp.env.items()},
            params=state.params,
            functions=state.functions,
            cwd_node=(
                self.map_node(sp.cwd_node) if sp.cwd_node is not None else None
            ),
            cwd_str=self.remap_symstr(sp.cwd_str),
            fs=fs,
            store=store,
            status=sp.status,
            stdout=list(state.stdout)
            + [
                StdoutChunk(
                    text=self.remap_symstr(chunk.text), stream=chunk.stream
                )
                for chunk in sp.d_stdout
            ],
            notes=list(state.notes) + sp.d_notes,
            diagnostics=list(state.diagnostics) + sp.d_diags,
            halted=sp.halted,
            depth=sp.depth,
            capturing=sp.capturing,
            options=sp.options,
            bg_jobs=sp.bg_jobs,
            bg_launched=sp.bg_launched,
            loop_control=sp.loop_control,
            argv_unknown=state.argv_unknown,
            argc_sym=state.argc_sym,
        )


def _event_effects(events: Sequence[FsEvent], labels: Dict[int, str]):
    """Read/written canonical path strings of a body's event delta, for
    the fragment dependence index (raw vids replaced by their source
    labels so strings compare across runs)."""

    def canon(path: str) -> str:
        return _SYM_NAME.sub(
            lambda m: "<" + labels.get(int(m.group(1)), "sym") + ">", path
        )

    reads: Set[str] = set()
    writes: Set[str] = set()
    for event in events:
        if event.op.name in _WRITE_OPS:
            writes.add(canon(event.path))
        elif event.op.name in _READ_OPS:
            reads.add(canon(event.path))
    return frozenset(reads), frozenset(writes)


# ---------------------------------------------------------------------------
# the memo: the engine-side hook
# ---------------------------------------------------------------------------


class FragmentMemo:
    """Per-analysis memoization hook installed as ``engine.fragment_memo``.

    One instance serves a single ``analyze()`` call; the
    :class:`~repro.analysis.cache.FragmentCache` behind it is long-lived
    and shared across re-analyses (and threads) of a session.
    """

    def __init__(
        self,
        cache: FragmentCache,
        table: FragmentTable,
        config_fingerprint: str,
    ):
        self.cache = cache
        self.table = table
        self.config_fp = config_fingerprint + "/" + version_salt()
        self._regex_cache: Dict[int, tuple] = {}
        #: frag_id -> (reads, writes) unioned over this run's summaries
        self.effects: Dict[str, Tuple[frozenset, frozenset]] = {}
        self.hits = 0
        self.misses = 0

    # -- closure of callable fragments -----------------------------------

    def _closure(self, frag: Fragment, functions: Dict[str, Command]):
        """(name, digest-or-None) for every function transitively
        callable from the fragment under the entry bindings, or None
        when a reachable binding is not a memoizable fragment."""
        sig: List[Tuple[str, Optional[str]]] = []
        done: Set[str] = set()
        pending = set(frag.calls)
        while pending:
            name = pending.pop()
            if name in done:
                continue
            done.add(name)
            body = functions.get(name)
            if body is None:
                sig.append((name, None))
                continue
            sub = self.table.by_body.get(id(body))
            if sub is None or sub.has_defs:
                return None
            sig.append((name, sub.digest))
            pending |= sub.calls - done
        return tuple(sorted(sig))

    def _walk_map(self, frag: Fragment, closure) -> Dict[int, Tuple[str, int]]:
        """id(node) -> (frag_id, walk index) over the fragment's body and
        every body in its closure — the namespace for success-tracker
        deltas (``id()`` is parse-specific, walk order is not)."""
        mapping: Dict[int, Tuple[str, int]] = {}
        frags = [frag] + [
            self.table.by_name[name]
            for name, digest in closure
            if digest is not None and name in self.table.by_name
        ]
        seen: Set[str] = set()
        for sub in frags:
            if sub.frag_id in seen:
                continue
            seen.add(sub.frag_id)
            for idx, node in enumerate(walk(sub.body)):
                mapping.setdefault(id(node), (sub.frag_id, idx))
        return mapping

    def _nodes_by_tag(self, frag: Fragment, closure) -> Dict[Tuple[str, int], Command]:
        """Inverse of :meth:`_walk_map`, over the current parse."""
        mapping: Dict[Tuple[str, int], Command] = {}
        frags = [frag] + [
            self.table.by_name[name]
            for name, digest in closure
            if digest is not None and name in self.table.by_name
        ]
        seen: Set[str] = set()
        for sub in frags:
            if sub.frag_id in seen:
                continue
            seen.add(sub.frag_id)
            for idx, node in enumerate(walk(sub.body)):
                mapping.setdefault((sub.frag_id, idx), node)
        return mapping

    # -- the hook ---------------------------------------------------------

    def eval_body(
        self, engine, name: str, body: Command, state: SymState
    ) -> List[SymState]:
        rec = engine._rec
        frag = self.table.by_body.get(id(body))
        if frag is None or frag.has_defs:
            return engine.eval(body, state)
        closure = self._closure(frag, state.functions)
        if closure is None:
            rec.count("incremental.fragments.unsupported")
            return engine.eval(body, state)
        try:
            fp, ctx = fingerprint_state(engine, state, self._regex_cache)
        except _Unsupported:
            rec.count("incremental.fragments.unsupported")
            return engine.eval(body, state)
        key = (frag.digest, closure, self.config_fp, fp)

        summary = self.cache.get(key)
        if summary is not None:
            self.hits += 1
            rec.count("incremental.fragments.hit")
            self.effects[frag.frag_id] = _merge_effects(
                self.effects.get(frag.frag_id), summary.reads, summary.writes
            )
            return self._replay(engine, frag, closure, summary, state, ctx)

        self.misses += 1
        rec.count("incremental.fragments.miss")
        return self._evaluate_and_store(
            engine, frag, closure, key, state, ctx
        )

    def _replay(
        self, engine, frag, closure, summary: FragmentSummary, state, ctx
    ) -> List[SymState]:
        replayer = _Replayer(summary, ctx)
        results = [replayer.materialise(sp, state) for sp in summary.posts]
        engine.paths_explored += summary.d_explored
        engine.paths_merged += summary.d_merged
        engine.truncations += summary.d_truncations
        engine._region_counter += summary.d_regions
        if summary.d_explored:
            engine._rec.count("symex.states_explored", summary.d_explored)
        if summary.tracker_delta:
            nodes_by_tag = self._nodes_by_tag(frag, closure)
            for tag, (d_feasible, d_visits) in summary.tracker_delta.items():
                node = nodes_by_tag.get(tag)
                if node is None:
                    continue
                entry = engine._success_tracker.setdefault(
                    id(node), [node, 0, 0]
                )
                entry[1] += d_feasible
                entry[2] += d_visits
        return results

    def _evaluate_and_store(
        self, engine, frag, closure, key, state, ctx
    ) -> List[SymState]:
        pre_explored = engine.paths_explored
        pre_merged = engine.paths_merged
        pre_trunc = engine.truncations
        pre_regions = engine._region_counter
        pre_tracker = {
            nid: (entry[1], entry[2])
            for nid, entry in engine._success_tracker.items()
        }
        pre_functions = dict(state.functions)

        results = engine.eval(frag.body, state)

        # function tables must be untouched for replay to rebuild them
        # from the caller's bindings (``has_defs`` already excludes all
        # reachable definitions syntactically; this is the belt)
        for st in results:
            if len(st.functions) != len(pre_functions) or any(
                st.functions.get(k) is not v for k, v in pre_functions.items()
            ):
                engine._rec.count("incremental.fragments.unsupported")
                return results

        tracker_delta: Dict[Tuple[str, int], Tuple[int, int]] = {}
        walk_map = self._walk_map(frag, closure)
        for nid, entry in engine._success_tracker.items():
            old_feasible, old_visits = pre_tracker.get(nid, (0, 0))
            d_feasible = entry[1] - old_feasible
            d_visits = entry[2] - old_visits
            if not d_feasible and not d_visits:
                continue
            tag = walk_map.get(nid)
            if tag is None:
                # the body touched a command outside its closure's
                # namespace — cannot be replayed portably
                engine._rec.count("incremental.fragments.unsupported")
                return results
            tracker_delta[tag] = (d_feasible, d_visits)

        posts = [_snapshot_post(st, ctx) for st in results]
        labels: Dict[int, str] = {}
        all_events: List[FsEvent] = []
        for st, sp in zip(results, posts):
            labels.update(st.store._labels)
            all_events.extend(sp.log_delta)
        reads, writes = _event_effects(all_events, labels)
        summary = FragmentSummary(
            posts=posts,
            pre_vids=tuple(ctx.vids),
            pre_nodes=tuple(ctx.nodes),
            pre_constraints=ctx.constraints,
            d_explored=engine.paths_explored - pre_explored,
            d_merged=engine.paths_merged - pre_merged,
            d_truncations=engine.truncations - pre_trunc,
            d_regions=engine._region_counter - pre_regions,
            tracker_delta=tracker_delta,
            reads=reads,
            writes=writes,
        )
        self.cache.put(key, summary, digest=frag.digest)
        self.effects[frag.frag_id] = _merge_effects(
            self.effects.get(frag.frag_id), reads, writes
        )
        return results


def _merge_effects(existing, reads, writes):
    if existing is None:
        return (reads, writes)
    return (existing[0] | reads, existing[1] | writes)


# ---------------------------------------------------------------------------
# the session: invalidation over the fragment dependence graph
# ---------------------------------------------------------------------------


@dataclass
class _PathIndex:
    """What the session remembers about one watched script."""

    digests: Dict[str, str]
    #: frag_id -> set of downstream dependent frag_ids (RAW/WAR/WAW)
    dependents: Dict[str, Set[str]]
    effects: Dict[str, Tuple[frozenset, frozenset]]


class IncrementalSession:
    """Re-analysis driver: whole files in, reports out, with per-function
    summary reuse and dependence-graph invalidation in between.

    One session wraps one :class:`FragmentCache` plus a per-path fragment
    index.  ``analyze()`` is safe to call from the daemon's watch thread
    (a lock serialises re-analyses; the cache itself is thread-safe).
    """

    def __init__(self, config=None, fragment_cache: Optional[FragmentCache] = None):
        from .batch import BatchConfig

        self.config = config if config is not None else BatchConfig()
        # explicit None-check: an empty FragmentCache is falsy (len 0)
        self.fragments = (
            fragment_cache if fragment_cache is not None else FragmentCache()
        )
        self._index: Dict[str, _PathIndex] = {}
        self._lock = threading.RLock()
        self._memo: Optional[FragmentMemo] = None
        #: last-call observability (exposed for ops logging / tests)
        self.last_invalidated: List[str] = []
        self.last_hits = 0
        self.last_misses = 0

    # -- analyzer attachment (called from _analyze) -----------------------

    def _attach(self, source: str, ast, config_fingerprint: str):
        """Build the per-call memo; returns None when the source has no
        memoizable fragments (plain scripts skip the machinery)."""
        table = split_fragments(source, ast)
        memo = FragmentMemo(self.fragments, table, config_fingerprint)
        self._memo = memo
        return memo

    # -- the public entry -------------------------------------------------

    def analyze(self, source: str, path: Optional[str] = None, budget=None):
        """Analyze ``source`` incrementally; byte-identical to a cold
        :func:`repro.analysis.analyze` with the session's configuration."""
        from .analyzer import analyze as _analyze_fn

        rec = get_recorder()
        with self._lock, rec.span("incremental.reanalyze"):
            if path is not None:
                self._invalidate(path, source, rec)
            self._memo = None
            report = _analyze_fn(
                source,
                budget=budget if budget is not None else self.config.budget(),
                incremental=self,
                **self.config.analyze_kwargs(),
            )
            memo = self._memo
            if memo is not None:
                self.last_hits = memo.hits
                self.last_misses = memo.misses
                if path is not None:
                    self._reindex(path, memo)
            else:
                self.last_hits = self.last_misses = 0
            return report

    def forget(self, path: str) -> None:
        """Drop a deleted/renamed script's index (watch-mode eviction)."""
        with self._lock:
            self._index.pop(path, None)

    # -- invalidation -----------------------------------------------------

    def _invalidate(self, path: str, source: str, rec) -> None:
        self.last_invalidated = []
        old = self._index.get(path)
        if old is None:
            return
        try:
            table = split_fragments(source)
        except Exception:  # syntax error: analyze() will report it
            return
        new_digests = table.digests()
        changed = {
            frag_id
            for frag_id, digest in old.digests.items()
            if new_digests.get(frag_id) != digest
        }
        changed |= set(new_digests) - set(old.digests)
        if not changed:
            return
        # downstream closure over the stored RAW/WAR/WAW edges
        invalidated = set(changed)
        frontier = list(changed)
        while frontier:
            frag_id = frontier.pop()
            for dep in old.dependents.get(frag_id, ()):
                if dep not in invalidated:
                    invalidated.add(dep)
                    frontier.append(dep)
        invalidated.discard("<residue>")
        for frag_id in sorted(invalidated):
            digest = old.digests.get(frag_id)
            if digest is not None:
                self.fragments.invalidate_digest(digest)
        if invalidated:
            rec.count("incremental.fragments.invalidated", len(invalidated))
        self.last_invalidated = sorted(invalidated)

    # -- index rebuilding -------------------------------------------------

    def _reindex(self, path: str, memo: FragmentMemo) -> None:
        table = memo.table
        old = self._index.get(path)
        effects: Dict[str, Tuple[frozenset, frozenset]] = {}
        new_digests = table.digests()
        if old is not None:
            # carry effects of unchanged fragments that were not called
            # this round (their summaries — and effects — still hold)
            for frag_id, pair in old.effects.items():
                if old.digests.get(frag_id) == new_digests.get(frag_id):
                    effects[frag_id] = pair
        effects.update(memo.effects)

        rows: List[CommandEffects] = []
        order = sorted(table.fragments, key=lambda f: f.start_line)
        for idx, frag in enumerate(order):
            reads, writes = effects.get(frag.frag_id, (frozenset(), frozenset()))
            uses, defs = _vars_of(frag.body)
            rows.append(
                CommandEffects(
                    index=idx,
                    source=frag.frag_id,
                    reads=set(reads),
                    writes=set(writes),
                    var_uses=uses,
                    var_defs=defs,
                )
            )
        dependents: Dict[str, Set[str]] = {}
        for dep in derive_dependencies(rows):
            src = order[dep.src].frag_id
            dst = order[dep.dst].frag_id
            dependents.setdefault(src, set()).add(dst)
        self._index[path] = _PathIndex(
            digests=new_digests, dependents=dependents, effects=effects
        )
