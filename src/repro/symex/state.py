"""Symbolic program states.

A :class:`SymState` is one point in the explored execution tree: the
shell environment (variables, positional parameters, functions), the
working directory, the symbolic file system, the regular-language
constraint store, the last exit status, any captured stdout, the path
condition (as human-readable notes), and diagnostics collected so far.

Forking copies each container once, at C level.  The file-system nodes
are copy-on-write (a fork shares them until a write).  The constraint
store copies its three small dicts; the ``Regex`` objects in them are
shared, and a refinement replaces one rather than changing it.

Variables and functions each carry an order-independent fingerprint:
the XOR of ``hash((name, value))`` over the variables and of
``hash((name, id(body)))`` over the functions.  Every write goes through
a method here that updates it, and a fork carries it over, so state
merging hashes a state without sorting its bindings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..diag import Diagnostic
from ..fs import FileSystem
from ..records import FrozenRecord, Record, set_field
from ..rlang import Regex
from ..rtypes import StreamType
from ..shell.ast import Command
from ..symstr import ConstraintStore, SymString

#: Exit status: a known small integer, or None when unknown/symbolic.
Status = Optional[int]

STATUS_UNKNOWN: Status = None


class BgJob(FrozenRecord):
    """A live (unwaited) background job on one symbolic path.

    ``number`` is the shell job number (1-based, in launch order, the
    ``%1`` of ``wait %1``); ``region`` is the event-log region id whose
    open/close markers delimit where the job's effects may interleave.
    ``pos`` is the source position, excluded from equality and hashing:
    Position is mutable, and two states differing only in a job's
    position should still merge.
    """

    __slots__ = ("number", "region", "label", "pos")

    def __init__(self, number: int, region: int, label: str = "", pos: Optional[object] = None):
        set_field(self, "number", number)
        set_field(self, "region", region)
        set_field(self, "label", label)
        set_field(self, "pos", pos)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.number, self.region, self.label) == (
                other.number, other.region, other.label
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.number, self.region, self.label))


class StdoutChunk(Record):
    """A piece of captured standard output.

    Either concrete-ish ``text`` (a SymString) or a stream of lines with
    a regular ``stream`` type (from a pipeline or an opaque command).
    """

    __slots__ = ("text", "stream")

    def __init__(self, text: Optional[SymString] = None, stream: Optional[StreamType] = None):
        self.text = text
        self.stream = stream

    @classmethod
    def of_text(cls, text: SymString) -> "StdoutChunk":
        return cls(text=text)

    @classmethod
    def of_stream(cls, stream: StreamType) -> "StdoutChunk":
        return cls(stream=stream)


def _binding_hash(name: str, value: object) -> int:
    return hash((name, value))


class SymState:
    __slots__ = (
        "env",
        "env_fingerprint",
        "params",
        "argv_unknown",
        "argc_sym",
        "functions",
        "functions_fingerprint",
        "cwd_node",
        "cwd_str",
        "fs",
        "store",
        "status",
        "stdout",
        "notes",
        "diagnostics",
        "halted",
        "depth",
        "capturing",
        "options",
        "bg_jobs",
        "bg_launched",
        "loop_control",
    )

    def __init__(
        self,
        env: Optional[Dict[str, SymString]] = None,
        params: Optional[List[SymString]] = None,
        functions: Optional[Dict[str, Command]] = None,
        cwd_node: Optional[int] = None,
        cwd_str: Optional[SymString] = None,
        fs: Optional[FileSystem] = None,
        store: Optional[ConstraintStore] = None,
        status: Status = 0,
        stdout: Optional[List[StdoutChunk]] = None,
        notes: Optional[List[str]] = None,
        diagnostics: Optional[List[Diagnostic]] = None,
        halted: bool = False,
        depth: int = 0,
        capturing: bool = False,
        options: "Optional[set]" = None,
        bg_jobs: Tuple[BgJob, ...] = (),
        bg_launched: int = 0,
        loop_control: Optional[Tuple[str, int]] = None,
        argv_unknown: bool = False,
        argc_sym: Optional[SymString] = None,
    ):
        self.env = dict(env or {})
        self.env_fingerprint = 0
        for name, value in self.env.items():
            self.env_fingerprint ^= _binding_hash(name, value)
        self.params = list(params or [])
        #: True when the positional parameters beyond the known prefix in
        #: ``params`` are unknown at entry (POSIX start-up semantics: a
        #: script's argv is whatever the caller passes, not concretely
        #: empty).  ``$N`` past the prefix materialises lazily as a fresh
        #: unconstrained variable, and ``$#`` is a symbolic count.
        self.argv_unknown = argv_unknown
        #: the memoised symbolic value of ``$#`` on this path (only while
        #: ``argv_unknown``); reset whenever the count changes (shift)
        self.argc_sym = argc_sym
        self.functions = dict(functions or {})
        self.functions_fingerprint = 0
        for name, body in self.functions.items():
            self.functions_fingerprint ^= _binding_hash(name, id(body))
        self.fs = fs if fs is not None else FileSystem()
        self.store = store if store is not None else ConstraintStore()
        self.cwd_node = cwd_node
        self.cwd_str = cwd_str if cwd_str is not None else SymString.lit("/")
        self.status = status
        self.stdout = list(stdout or [])
        self.notes = list(notes or [])
        self.diagnostics = list(diagnostics or [])
        self.halted = halted
        self.depth = depth
        #: True while stdout is being captured for a command substitution;
        #: outside capture, stdout content is irrelevant to state identity
        self.capturing = capturing
        #: shell options in effect: "e" (errexit), "u" (nounset), ...
        self.options = set(options or ())
        #: live (unwaited) background jobs, in launch order
        self.bg_jobs = tuple(bg_jobs)
        #: how many background jobs this path has launched (job numbering)
        self.bg_launched = bg_launched
        #: a pending ``break``/``continue``: ("break"|"continue", levels).
        #: While set, the engine skips evaluation until the enclosing
        #: loop(s) consume it, one level per loop boundary.
        self.loop_control = loop_control

    # -- forking -----------------------------------------------------------

    def fork(self, note: str = "", last: bool = False) -> "SymState":
        """A copy of this state, noted; a branch point's ``last`` outcome,
        when nothing needs this state untouched, takes it instead."""
        if last:
            if note:
                self.notes.append(note)
            return self
        child = SymState.__new__(SymState)
        child.env = self.env.copy()
        child.env_fingerprint = self.env_fingerprint
        child.params = self.params.copy()
        child.argv_unknown = self.argv_unknown
        child.argc_sym = self.argc_sym
        child.functions = self.functions.copy()
        child.functions_fingerprint = self.functions_fingerprint
        child.cwd_node = self.cwd_node
        child.cwd_str = self.cwd_str
        child.fs = self.fs.fork()
        child.store = self.store.fork()
        child.status = self.status
        child.stdout = self.stdout.copy()
        child.notes = self.notes.copy()
        child.diagnostics = self.diagnostics.copy()
        child.halted = self.halted
        child.depth = self.depth
        child.capturing = self.capturing
        child.options = self.options.copy()
        child.bg_jobs = self.bg_jobs
        child.bg_launched = self.bg_launched
        child.loop_control = self.loop_control
        if note:
            child.notes.append(note)
        return child

    # -- subshell scope -----------------------------------------------------

    def scope(self) -> tuple:
        """A snapshot of what a subshell cannot change in its parent:
        variables, positional parameters, functions and the working
        directory (with the bindings' fingerprints)."""
        return (
            self.env.copy(),
            self.env_fingerprint,
            self.params.copy(),
            self.argv_unknown,
            self.argc_sym,
            self.functions.copy(),
            self.functions_fingerprint,
            self.cwd_node,
            self.cwd_str,
        )

    def restore_scope(self, scope: tuple) -> None:
        """Reinstate a :meth:`scope` snapshot; the snapshot stays
        unshared, so it can be restored into several states."""
        (
            env,
            self.env_fingerprint,
            params,
            self.argv_unknown,
            self.argc_sym,
            functions,
            self.functions_fingerprint,
            self.cwd_node,
            self.cwd_str,
        ) = scope
        self.env = env.copy()
        self.params = params.copy()
        self.functions = functions.copy()

    # -- environment --------------------------------------------------------

    def get_var(self, name: str) -> Optional[SymString]:
        """Value of a variable or special parameter; None when unset."""
        if name.isdigit():
            idx = int(name)
            if idx < len(self.params):
                return self.params[idx]
            if self.argv_unknown and idx > 0:
                # argv is unknown at entry: $N past the known prefix is a
                # fresh, unconstrained value, memoised per path so later
                # refinements (case arms, tests) stick
                while len(self.params) <= idx:
                    vid = self.store.fresh(label=f"${len(self.params)}")
                    self.params.append(SymString.var(vid))
                return self.params[idx]
            return None
        if name == "?":
            if self.status is None:
                vid = self.store.fresh(
                    Regex.constant("[0-9]{1,3}"), label="$? (unknown)"
                )
                return SymString.var(vid)
            return SymString.lit(str(self.status))
        if name == "#":
            if self.argv_unknown:
                if self.argc_sym is None:
                    vid = self.store.fresh(
                        Regex.constant("0|[1-9][0-9]*"), label="$#"
                    )
                    self.argc_sym = SymString.var(vid)
                return self.argc_sym
            return SymString.lit(str(max(0, len(self.params) - 1)))
        if name == "PWD":
            return self.cwd_str
        if name in ("@", "*"):
            # joined positionals (field splitting is out of scope)
            joined = SymString.empty()
            for idx, param in enumerate(self.params[1:]):
                if idx:
                    joined = joined + SymString.lit(" ")
                joined = joined + param
            if self.argv_unknown:
                # the unknown tail: any string, including the empty one
                vid = self.store.fresh(label=f'"${name}" (unknown tail)')
                joined = joined + SymString.var(vid)
            return joined
        if name == "$":
            return SymString.lit("12345")  # a fixed abstract pid
        return self.env.get(name)

    # -- positional parameters ----------------------------------------------

    def set_params(self, values: List[SymString]) -> None:
        """Replace the positional parameters ($1...) with known values
        (``set -- a b c``); the count becomes concrete again."""
        script = self.params[0] if self.params else SymString.lit("sh")
        self.params = [script] + list(values)
        self.argv_unknown = False
        self.argc_sym = None

    def set_var(self, name: str, value: SymString) -> None:
        if name == "PWD":
            self.cwd_str = value
        env = self.env
        old = env.get(name)
        if old is not None:
            self.env_fingerprint ^= _binding_hash(name, old)
        env[name] = value
        self.env_fingerprint ^= _binding_hash(name, value)

    def unset_var(self, name: str) -> None:
        old = self.env.pop(name, None)
        if old is not None:
            self.env_fingerprint ^= _binding_hash(name, old)

    # -- functions ------------------------------------------------------------

    def define_function(self, name: str, body: Command) -> None:
        old = self.functions.get(name)
        if old is not None:
            self.functions_fingerprint ^= _binding_hash(name, id(old))
        self.functions[name] = body
        self.functions_fingerprint ^= _binding_hash(name, id(body))

    def same_functions(self, other: "SymState") -> bool:
        """Do both states bind the same names to literally the same
        bodies?  A path that redefined a function must not merge with
        one that kept the old body."""
        mine = self.functions
        theirs = other.functions
        if len(mine) != len(theirs):
            return False
        for name, body in mine.items():
            if theirs.get(name) is not body:
                return False
        return True

    # -- status ------------------------------------------------------------------

    def with_status(self, status: Status) -> "SymState":
        self.status = status
        return self

    def succeeded(self) -> Optional[bool]:
        """True/False when the status is known, None when symbolic."""
        if self.status is None:
            return None
        return self.status == 0

    # -- output -------------------------------------------------------------------

    def emit_text(self, text: SymString) -> None:
        self.stdout.append(StdoutChunk.of_text(text))

    def emit_stream(self, stream: StreamType) -> None:
        self.stdout.append(StdoutChunk.of_stream(stream))

    def stdout_value(self) -> Tuple[SymString, bool]:
        """Captured stdout as a value for command substitution.

        Returns ``(value, exact)``; when any chunk is a stream, the value
        degrades to a fresh unconstrained-ish variable created by the
        caller — here we signal with ``exact=False``.
        """
        if any(chunk.stream is not None for chunk in self.stdout):
            return SymString.empty(), False
        value = SymString.empty()
        for chunk in self.stdout:
            value = value + chunk.text
        return value, True

    # -- diagnostics -----------------------------------------------------------------

    def warn(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def __repr__(self) -> str:
        return (
            f"SymState(status={self.status}, vars={sorted(self.env)}, "
            f"notes={len(self.notes)})"
        )
