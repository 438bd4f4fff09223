"""The symbolic execution engine (paper §3, ingredient 2).

Simulates the shell interpreter over sets of symbolic states: expands
parameters, tracks working directories, follows success *and* failure
paths of every command, collects and propagates constraints on symbolic
variables, and prunes via concrete state whenever possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..checkers.base import Checker
from ..diag import Diagnostic, Severity, dedupe
from ..fs import FsContradiction, FsOp, NodeKind, Origin, parse_sympath
from ..obs import Recorder, get_recorder
from ..rlang import Regex
from ..rtypes import StreamType, check_pipeline
from ..shell import parse as parse_shell
from ..shell.ast import (
    AndOr,
    Background,
    BraceGroup,
    Case,
    CaseItem,
    Command,
    For,
    FunctionDef,
    If,
    ParamPart,
    Pipeline,
    Redirect,
    Sequence as SeqNode,
    SimpleCommand,
    Subshell,
    While,
    Word,
)
from ..shell.ast import first_pos
from ..shell.glob import word_pattern_to_regex
from ..shell.printer import command_label
from ..specs import (
    Absent,
    Clause,
    CommandSpec,
    CopiesTo,
    Creates,
    Deletes,
    Exists,
    LinksTo,
    ListsDir,
    ParentExists,
    PathKind,
    ReadsFile,
    Sel,
    SpecRegistry,
    WritesFile,
    default_registry,
)
from ..symstr import SymString
from . import builtins as builtins_mod
from .expansion import expand_word, expand_words
from .state import BgJob, SymState

#: Script paths ($0): §3's example constraint.
SCRIPT_PATH_RE = r"/?([^/\n]*/)*[^/\n]+"


@dataclass
class ExecResult:
    """Outcome of exploring a script."""

    states: List[SymState]
    diagnostics: List[Diagnostic]
    paths_explored: int = 0
    paths_merged: int = 0
    truncations: int = 0

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def has(self, code: str) -> bool:
        return any(d.code == code for d in self.diagnostics)


class Engine:
    """Configurable symbolic executor."""

    def __init__(
        self,
        registry: Optional[SpecRegistry] = None,
        checkers: Optional[List[Checker]] = None,
        max_fork: int = 64,
        max_loop: int = 2,
        max_call_depth: int = 8,
        prune: bool = True,
        signature_overrides: Optional[Dict[str, "object"]] = None,
        initial_env: Optional[Dict[str, "object"]] = None,
        recorder: Optional[Recorder] = None,
        budget: Optional["object"] = None,
    ):
        self.registry = registry if registry is not None else default_registry()
        self.checkers = checkers if checkers is not None else []
        self.max_fork = max_fork
        self.max_loop = max_loop
        self.max_call_depth = max_call_depth
        self.prune = prune
        #: annotation-supplied stream signatures, keyed by command name or
        #: by the full argv string (the more specific key wins)
        self.signature_overrides = dict(signature_overrides or {})
        #: annotation-supplied initial variable constraints (name -> Regex)
        self.initial_env = dict(initial_env or {})
        #: variable names assigned anywhere in the current script; names
        #: never assigned are treated as inherited environment variables
        #: (symbolic, possibly empty) rather than silently-empty unsets
        self.script_assigned: set = set()
        self.paths_explored = 0
        self.paths_merged = 0
        #: how many times `_prune` dropped states past the `max_fork` budget
        self.truncations = 0
        #: explicit recorder, or None to pick up the active one per run
        self.recorder = recorder
        self._rec: Recorder = recorder if recorder is not None else get_recorder()
        #: explicit ResourceBudget, or None to pick up the active one per
        #: run (see repro.analysis.resilience); exhaustion raises
        #: AnalysisBudgetExceeded out of run()
        self.budget = budget
        self._budget = budget
        #: per-command success feasibility, aggregated across every path
        #: reaching it: id(node) -> [node, feasible_count, visit_count]
        self._success_tracker: Dict[int, list] = {}
        #: >0 while evaluating a condition context (if/while/&&/||/!),
        #: where `set -e` does not fire
        self._cond_depth = 0
        #: background region ids handed out this run (0 = foreground)
        self._region_counter = 0
        #: how many loops lexically enclose the current evaluation point
        #: (break/continue clamp their level to this, per bash)
        self.loop_depth = 0
        #: provenance labels, cached per AST node (id(node) -> Origin)
        self._origin_cache: Dict[int, Origin] = {}
        #: each case arm's compiled pattern language (None: dynamic),
        #: id(item) -> (item, language); forked states reaching the same
        #: `case` reuse it instead of re-running subset construction
        self._arm_langs: Dict[int, Tuple[CaseItem, Optional[Regex]]] = {}
        #: optional fragment memoization hook (incremental analysis):
        #: when set, function-body evaluations may be served from
        #: per-fragment summaries instead of being re-explored.  See
        #: repro.analysis.incremental.FragmentMemo.
        self.fragment_memo = None

    # -- entry points -------------------------------------------------------

    def initial_state(
        self,
        n_args: Optional[int] = None,
        args: Optional[Sequence[str]] = None,
    ) -> SymState:
        """The entry state.

        - ``args``: concrete positional parameters (``--args a b c``).
        - ``n_args``: that many *symbolic* positional parameters with a
          known count (the legacy mode, kept for ``# @args N``).
        - neither: POSIX start-up semantics — argv is whatever the caller
          passes, so the positionals are unknown-at-entry (``$#`` is a
          symbolic count, ``$N`` materialises lazily).
        """
        state = SymState()
        vid0 = state.store.fresh(Regex.compile(SCRIPT_PATH_RE), label="$0")
        state.params = [SymString.var(vid0)]
        if args is not None:
            state.params.extend(SymString.lit(str(a)) for a in args)
        elif n_args is None:
            state.argv_unknown = True
        else:
            for idx in range(1, n_args + 1):
                vid = state.store.fresh(label=f"${idx}")
                state.params.append(SymString.var(vid))
        cwd_vid = state.store.fresh(
            Regex.compile(builtins_mod.ABS_PATH), label="$PWD"
        )
        state.cwd_str = SymString.var(cwd_vid)
        state.cwd_node = None
        for name, constraint in self.initial_env.items():
            vid = state.store.fresh(constraint, label=f"${name}")
            state.set_var(name, SymString.var(vid))
        return state

    def run_script(
        self,
        source: str,
        n_args: Optional[int] = None,
        state: Optional[SymState] = None,
        args: Optional[Sequence[str]] = None,
    ) -> ExecResult:
        ast = parse_shell(source)
        return self.run(ast, state=state, n_args=n_args, args=args)

    def run(
        self,
        ast: Command,
        state: Optional[SymState] = None,
        n_args: Optional[int] = None,
        args: Optional[Sequence[str]] = None,
    ) -> ExecResult:
        rec = self._rec = self.recorder if self.recorder is not None else get_recorder()
        if self.budget is not None:
            self._budget = self.budget
        else:
            from ..analysis.resilience import get_budget

            self._budget = get_budget()
        self.paths_explored = 0
        self.paths_merged = 0
        self.truncations = 0
        self.script_assigned = _assigned_names(ast)
        self._success_tracker = {}
        self._region_counter = 0
        self._origin_cache = {}
        self._arm_langs = {}
        self.loop_depth = 0
        if state is None:
            state = self.initial_state(n_args=n_args, args=args)
        with rec.span("symex.run"):
            finals = self.eval(ast, state)
            diagnostics: List[Diagnostic] = []
            for final in finals:
                diagnostics.extend(final.diagnostics)
            with rec.span("symex.checkers"):
                # a command "always fails" only when its success preconditions
                # contradicted established facts on EVERY path that reached it
                sink = _DiagSink()
                for node, feasible, visits in self._success_tracker.values():
                    if visits and not feasible:
                        reason = (
                            "its preconditions contradict established "
                            "file-system facts"
                        )
                        for checker in self.checkers:
                            checker.on_always_fails(sink, node, reason)
                diagnostics.extend(sink.diagnostics)
                for checker in self.checkers:
                    diagnostics.extend(checker.finish(finals))
        if self.truncations:
            diagnostics.append(
                Diagnostic(
                    code="analysis-truncated",
                    message=(
                        f"analysis truncated: path budget (max_fork="
                        f"{self.max_fork}) exhausted {self.truncations} "
                        "time(s); results may be incomplete"
                    ),
                    severity=Severity.INFO,
                )
            )
        rec.count("symex.runs")
        return ExecResult(
            states=finals,
            diagnostics=dedupe(diagnostics),
            paths_explored=self.paths_explored,
            paths_merged=self.paths_merged,
            truncations=self.truncations,
        )

    # -- core dispatch ----------------------------------------------------------

    def eval(self, node: Command, state: SymState) -> List[SymState]:
        if state.halted:
            return [state]
        if state.loop_control is not None:
            # a pending break/continue skips everything until the
            # enclosing loop consumes it
            return [state]
        self.paths_explored += 1
        if self._budget is not None:
            # the hot resilience point: one eval step = one budget charge
            # (trips on max_states, and on the deadline every few steps)
            self._budget.charge_state()
        rec = self._rec
        rec.count("symex.states_explored")
        if rec.enabled:
            with rec.span("eval." + type(node).__name__):
                return self._eval_node(node, state)
        return self._eval_node(node, state)

    def _eval_node(self, node: Command, state: SymState) -> List[SymState]:
        if isinstance(node, SimpleCommand):
            return self._prune(self.eval_simple(node, state))
        if isinstance(node, Pipeline):
            return self._prune(self.eval_pipeline(node, state))
        if isinstance(node, AndOr):
            return self._prune(self.eval_andor(node, state))
        if isinstance(node, SeqNode):
            return self._prune(self.eval_sequence(node, state))
        if isinstance(node, Background):
            return self.eval_background(node, state)
        if isinstance(node, Subshell):
            return self.eval_subshell(node, state)
        if isinstance(node, BraceGroup):
            states = self.eval(node.body, state)
            return self._apply_redirect_list(node.redirects, states, owner=node)
        if isinstance(node, If):
            return self._prune(self.eval_if(node, state))
        if isinstance(node, While):
            return self._prune(self.eval_while(node, state))
        if isinstance(node, For):
            return self._prune(self.eval_for(node, state))
        if isinstance(node, Case):
            return self._prune(self.eval_case(node, state))
        if isinstance(node, FunctionDef):
            state.functions[node.name] = node.body
            return [state.with_status(0)]
        raise TypeError(f"engine cannot evaluate {type(node).__name__}")

    def eval_many(self, node: Command, states: List[SymState]) -> List[SymState]:
        results: List[SymState] = []
        for state in states:
            results.extend(self.eval(node, state))
        return self._prune(results)

    def _fork(self, state: SymState, note: str) -> SymState:
        self._rec.count("symex.states_forked")
        return state.fork(note=note)

    # -- provenance ---------------------------------------------------------

    def _origin_for(self, node: Command) -> Origin:
        """The (cached) provenance record for a command node."""
        origin = self._origin_cache.get(id(node))
        if origin is None:
            pos = first_pos(node) or getattr(node, "pos", None)
            origin = Origin(label=command_label(node), pos=pos)
            self._origin_cache[id(node)] = origin
        return origin

    # -- simple commands -----------------------------------------------------------

    def eval_simple(self, node: SimpleCommand, state: SymState) -> List[SymState]:
        # 1. assignments
        assign_states = [state]
        for assignment in node.assignments:
            next_states = []
            for st in assign_states:
                for val_state, value in expand_word(assignment.value, st, self):
                    val_state.set_var(assignment.name, value)
                    next_states.append(val_state)
            assign_states = next_states

        if not node.words:
            # assignment-only commands exit with the last command
            # substitution's status (already left in place by expansion),
            # or 0 when no substitution ran
            from ..shell.ast import CmdSubPart

            has_cmdsub = any(
                isinstance(part, CmdSubPart)
                for assignment in node.assignments
                for part in assignment.value.parts
            )
            results = []
            origin = self._origin_for(node)
            for st in assign_states:
                if not has_cmdsub:
                    st.status = 0
                st.fs.log.set_origin(origin)
                results.extend(self._apply_redirects(node.redirects, st))
            return results

        # 2. argv expansion
        results: List[SymState] = []
        for st in assign_states:
            for argv_state, argv in expand_words(node.words, st, self):
                results.extend(self._dispatch_command(node, argv, argv_state))
        return results

    def _dispatch_command(
        self, node: SimpleCommand, argv: List[SymString], state: SymState
    ) -> List[SymState]:
        name = argv[0].concrete_value()
        # all fs events from this command (spec effects, builtin probes,
        # redirects) are attributed to it on the trace
        state.fs.log.set_origin(self._origin_for(node))

        # redirects apply regardless of how the command is resolved
        def with_redirects(states: List[SymState]) -> List[SymState]:
            return self._apply_redirect_list(node.redirects, states, owner=node)

        if name is None:
            state.warn(
                Diagnostic(
                    code="dynamic-command",
                    message="command name is computed at runtime; its effects "
                    "are unknown",
                    severity=Severity.INFO,
                    pos=node.pos,
                )
            )
            return with_redirects(self._unknown_command(state))

        if name in state.functions:
            return with_redirects(self._call_function(name, argv, state))

        spec = self.registry.get(name)
        for checker in self.checkers:
            checker.on_command(state, node, argv, spec)

        if builtins_mod.is_builtin(name):
            return with_redirects(builtins_mod.run_builtin(name, argv, state, self))

        if spec is not None:
            return with_redirects(self._apply_spec(spec, node, argv, state))

        state.warn(
            Diagnostic(
                code="unknown-command",
                message=f"no specification for {name!r}; treating its "
                "effects as unknown",
                severity=Severity.INFO,
                pos=node.pos,
            )
        )
        return with_redirects(self._unknown_command(state))

    def _unknown_command(self, state: SymState) -> List[SymState]:
        vid = state.store.fresh(label="unknown-output")
        state.emit_text(SymString.var(vid))
        state.status = None
        return [state]

    def _call_function(
        self, name: str, argv: List[SymString], state: SymState
    ) -> List[SymState]:
        if state.depth >= self.max_call_depth:
            state.status = None
            return [state]
        body = state.functions[name]
        saved_params = list(state.params)
        saved_unknown = state.argv_unknown
        saved_argc = state.argc_sym
        state.params = [saved_params[0] if saved_params else SymString.lit(name)] + argv[1:]
        # inside the function the positional parameters are exactly the
        # call's arguments: a known count, even when the script's own
        # argv is unknown
        state.argv_unknown = False
        state.argc_sym = None
        state.depth += 1
        if self.fragment_memo is not None:
            results = self.fragment_memo.eval_body(self, name, body, state)
        else:
            results = self.eval(body, state)
        for result in results:
            result.params = saved_params
            result.argv_unknown = saved_unknown
            result.argc_sym = saved_argc
            result.depth -= 1
            result.halted = False  # `return` only exits the function
        return results

    # -- specs ---------------------------------------------------------------------

    def _apply_spec(
        self,
        spec: CommandSpec,
        node: SimpleCommand,
        argv: List[SymString],
        state: SymState,
    ) -> List[SymState]:
        flags, operand_values = self._parse_argv(spec, argv, state, node)

        clauses = spec.applicable_clauses(frozenset(flags))
        if not clauses:
            state.status = None
            return [state]

        results: List[SymState] = []
        any_success_feasible = False
        has_success_clause = any(c.exit_code == 0 for c in clauses)
        failure_branches: List[SymState] = []

        for clause in clauses:
            branch = self._fork(
                state, f"{spec.name}: {clause.note or f'exit {clause.exit_code}'}"
            )
            feasible, reason = self._apply_clause(
                spec, clause, operand_values, branch, node
            )
            if not feasible:
                continue
            branch.status = clause.exit_code
            if clause.exit_code == 0:
                any_success_feasible = True
                if spec.stdout is not None:
                    branch.emit_stream(spec.stdout)
                results.append(branch)
            else:
                failure_branches.append(branch)

        if has_success_clause and operand_values:
            entry = self._success_tracker.setdefault(id(node), [node, 0, 0])
            entry[1] += 1 if any_success_feasible else 0
            entry[2] += 1

        results.extend(failure_branches)
        if not results:
            # everything contradicted: keep a pruned-but-alive failure state
            state.status = 1
            return [state]
        return results

    def _parse_argv(
        self,
        spec: CommandSpec,
        argv: List[SymString],
        state: SymState,
        node: SimpleCommand,
    ) -> Tuple[List[str], List[SymString]]:
        """Tolerant XBD-style parse of symbolic argv: concrete dash words
        become flags, everything else is an operand."""
        flags: List[str] = []
        operands: List[SymString] = []
        seen_ddash = False
        idx = 1
        while idx < len(argv):
            concrete = argv[idx].concrete_value()
            if not seen_ddash and concrete == "--":
                seen_ddash = True
            elif (
                not seen_ddash
                and concrete is not None
                and concrete.startswith("--")
            ):
                key = concrete.split("=", 1)[0]
                flags.append(key)
                if spec.long_options.get(key[2:]) and "=" not in concrete:
                    idx += 1  # consumes the next word as its value
            elif (
                not seen_ddash
                and concrete is not None
                and concrete.startswith("-")
                and concrete != "-"
            ):
                jdx = 1
                while jdx < len(concrete):
                    char = concrete[jdx]
                    flags.append("-" + char)
                    if spec.options.get(char):
                        if jdx + 1 >= len(concrete):
                            idx += 1  # value is the next word
                        break
                    jdx += 1
            else:
                operands.append(argv[idx])
            idx += 1
        return flags, operands

    def _select(self, sel: Sel, operands: List[SymString]) -> List[SymString]:
        if sel is Sel.EACH:
            return list(operands)
        if sel is Sel.FIRST:
            return operands[:1]
        if sel is Sel.LAST:
            return operands[-1:]
        if sel is Sel.ALL_BUT_LAST:
            return operands[:-1]
        raise AssertionError(sel)

    def _apply_clause(
        self,
        spec: CommandSpec,
        clause: Clause,
        operands: List[SymString],
        state: SymState,
        node: SimpleCommand,
    ) -> Tuple[bool, str]:
        if not spec.operands_are_paths:
            return True, ""
        if spec.path_operands_from:
            operands = operands[spec.path_operands_from:]
        try:
            for pre in clause.pre:
                self._assume_pre(pre, operands, state)
        except FsContradiction as exc:
            return False, str(exc)
        for effect in clause.effects:
            self._apply_effect(effect, operands, state, node)
        return True, ""

    def _assume_pre(self, pre, operands: List[SymString], state: SymState) -> None:
        if isinstance(pre, Exists):
            kind = {
                PathKind.FILE: NodeKind.FILE,
                PathKind.DIR: NodeKind.DIR,
                PathKind.ANY: NodeKind.UNKNOWN,
            }[pre.kind]
            for value in self._select(pre.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    state.fs.assume_exists(node_id, kind)
        elif isinstance(pre, Absent):
            for value in self._select(pre.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    state.fs.assume_absent(node_id)
        elif isinstance(pre, ParentExists):
            for value in self._select(pre.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    parent = state.fs.nodes[node_id].parent
                    if parent is not None:
                        state.fs.assume_exists(parent, NodeKind.DIR)

    def _apply_effect(
        self, effect, operands: List[SymString], state: SymState, node: SimpleCommand
    ) -> None:
        if isinstance(effect, Deletes):
            for value in self._select(effect.sel, operands):
                for checker in self.checkers:
                    checker.on_delete(state, node, value, effect.recursive)
                target = value.without_globs() if value.has_glob() else value
                node_id = self._resolve(target, state)
                if node_id is not None:
                    if value.has_glob():
                        # deleting the *children* of the target directory
                        for child_id in list(state.fs.children_of(node_id).values()):
                            state.fs.delete(child_id, recursive=effect.recursive)
                    else:
                        state.fs.delete(node_id, recursive=effect.recursive)
        elif isinstance(effect, Creates):
            for value in self._select(effect.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    kind = NodeKind.DIR if effect.kind is PathKind.DIR else NodeKind.FILE
                    state.fs.create(node_id, kind, ensure_parents=effect.ensure_parents)
        elif isinstance(effect, WritesFile):
            for value in self._select(effect.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    state.fs.write_file(node_id)
        elif isinstance(effect, ReadsFile):
            for value in self._select(effect.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    state.fs.read_file(node_id)
        elif isinstance(effect, ListsDir):
            from ..fs import FsOp

            for value in self._select(effect.sel, operands):
                node_id = self._resolve(value, state)
                if node_id is not None:
                    state.fs.log.record(FsOp.LIST, state.fs.path_of(node_id), node_id)
        elif isinstance(effect, CopiesTo):
            if len(operands) >= 2:
                for source in operands[:-1]:
                    src_id = self._resolve(source, state)
                    if src_id is not None and effect.move:
                        state.fs.delete(src_id, recursive=True)
                dst_id = self._resolve(operands[-1], state)
                if dst_id is not None:
                    state.fs.create(dst_id, NodeKind.UNKNOWN)
        elif isinstance(effect, LinksTo):
            if len(operands) >= 2:
                src_id = self._resolve(operands[0], state)
                dst_id = self._resolve(operands[-1], state)
                if dst_id is not None:
                    if src_id is not None:
                        state.fs.make_symlink(dst_id, src_id)
                    else:
                        state.fs.create(dst_id, NodeKind.SYMLINK)

    def _resolve(self, value: SymString, state: SymState) -> Optional[int]:
        if value.has_glob():
            # resolve the static prefix before the first wildcard
            from ..symstr import GlobAtom

            atoms = []
            for atom in value.atoms:
                if isinstance(atom, GlobAtom):
                    break
                atoms.append(atom)
            value = SymString(atoms)
        path = parse_sympath(value)
        if path is None:
            return None
        return state.fs.resolve(path, cwd=state.cwd_node)

    # -- redirects --------------------------------------------------------------------

    def _apply_redirect_list(
        self,
        redirects: List[Redirect],
        states: List[SymState],
        owner: Optional[Command] = None,
    ) -> List[SymState]:
        if not redirects:
            return states
        results = []
        origin = self._origin_for(owner) if owner is not None else None
        for state in states:
            if origin is not None:
                state.fs.log.set_origin(origin)
            results.extend(self._apply_redirects(redirects, state))
        return results

    def _apply_redirects(
        self, redirects: List[Redirect], state: SymState
    ) -> List[SymState]:
        states = [state]
        for redirect in redirects:
            if redirect.op in (">", ">>", ">|"):
                next_states = []
                for st in states:
                    for val_state, value in expand_word(redirect.target, st, self):
                        node_id = self._resolve(value, val_state)
                        if node_id is not None:
                            if redirect.op != ">>":
                                self._check_clobbers_input(
                                    redirect, node_id, val_state, FsOp.READ
                                )
                            try:
                                val_state.fs.write_file(node_id)
                            except FsContradiction as exc:
                                val_state.warn(
                                    Diagnostic(
                                        code="redirect-conflict",
                                        message=str(exc),
                                        severity=Severity.WARNING,
                                        pos=redirect.target.pos,
                                    )
                                )
                        next_states.append(val_state)
                states = next_states
            elif redirect.op == "<":
                next_states = []
                for st in states:
                    for val_state, value in expand_word(redirect.target, st, self):
                        node_id = self._resolve(value, val_state)
                        if node_id is not None:
                            self._check_clobbers_input(
                                redirect, node_id, val_state, FsOp.WRITE
                            )
                            try:
                                val_state.fs.read_file(node_id)
                            except FsContradiction as exc:
                                val_state.warn(
                                    Diagnostic(
                                        code="always-fails",
                                        message=f"input redirection can never "
                                        f"succeed: {exc}",
                                        severity=Severity.ERROR,
                                        pos=redirect.target.pos,
                                        always=True,
                                    )
                                )
                        next_states.append(val_state)
                states = next_states
            # <&, >&, <>, heredocs: no fs consequences we track
        return states

    def _check_clobbers_input(
        self,
        redirect: Redirect,
        node_id: int,
        state: SymState,
        prior_op: "FsOp",
    ) -> None:
        """Warn when a truncating output redirect targets a file the same
        command also uses as input (``grep foo file > file``): the shell
        opens and truncates the output file *before* the command runs, so
        the input is destroyed.

        ``prior_op`` is the conflicting event kind already on the trace:
        a READ when processing an output redirect, a WRITE when
        processing an input one (covering both orderings of
        ``< file > file``).
        """
        log = state.fs.log
        origin = log.origin
        if origin is None:
            return
        for event in reversed(log.events):
            if event.origin is not origin:
                # this command's events form the tail of the trace
                break
            if event.op is prior_op and event.node == node_id:
                path = redirect.target.literal_text() or event.path or "the file"
                state.warn(
                    Diagnostic(
                        code="redirect-clobbers-input",
                        message=(
                            f"output redirection truncates {path!r}, which "
                            "is also this command's input; the shell opens "
                            "the output file before the command reads it"
                        ),
                        severity=Severity.WARNING,
                        pos=redirect.target.pos,
                        always=True,
                        related=(f"input read by {origin.describe()}",),
                    )
                )
                return

    # -- composition ---------------------------------------------------------------------

    def eval_pipeline(self, node: Pipeline, state: SymState) -> List[SymState]:
        if len(node.commands) == 1:
            results = self.eval(node.commands[0], state)
            if node.negated:
                for result in results:
                    result.status = (
                        None
                        if result.status is None
                        else (1 if result.status == 0 else 0)
                    )
            return results

        # stream-type analysis over the stages with static argv
        argvs = []
        static = True
        for stage in node.commands:
            argv = _static_argv(stage)
            if argv is None:
                static = False
                break
            argvs.append(argv)
        output_type: Optional[StreamType] = None
        if static:
            overrides = None
            if self.signature_overrides:
                overrides = []
                for argv in argvs:
                    sig = self.signature_overrides.get(
                        " ".join(argv)
                    ) or self.signature_overrides.get(argv[0])
                    overrides.append(sig)
            self._rec.count("rtypes.pipeline_checks")
            types = check_pipeline(argvs, signatures=overrides)
            for checker in self.checkers:
                checker.on_pipeline(state, node, types.issues)
            output_type = types.output

        # effects: thread states through each stage, discarding stdout of
        # all but the last stage
        states = [state]
        for idx, stage in enumerate(node.commands):
            next_states: List[SymState] = []
            for st in states:
                saved_stdout = list(st.stdout)
                st.stdout = []
                for result in self.eval(stage, st):
                    result.stdout = saved_stdout
                    next_states.append(result)
            states = self._prune(next_states)

        for result in states:
            if output_type is not None:
                result.emit_stream(output_type)
            else:
                vid = result.store.fresh(label="pipeline-output")
                result.emit_text(SymString.var(vid))
            if node.negated and result.status is not None:
                result.status = 1 if result.status == 0 else 0
        return states

    def eval_andor(self, node: AndOr, state: SymState) -> List[SymState]:
        left_states = self._eval_condition(node.left, state)
        results: List[SymState] = []
        for left in left_states:
            if left.halted:
                results.append(left)
                continue
            success = left.succeeded()
            run_right = (success is True) if node.op == "&&" else (success is False)
            if success is None:
                ok = self._fork(left, f"{node.op}: left succeeded")
                ok.status = 0
                fail = self._fork(left, f"{node.op}: left failed")
                fail.status = 1
                branches = [ok, fail]
            else:
                branches = [left]
            for branch in branches:
                branch_success = branch.succeeded()
                take_right = (
                    (branch_success is True)
                    if node.op == "&&"
                    else (branch_success is False)
                )
                if take_right:
                    results.extend(self.eval(node.right, branch))
                else:
                    results.append(branch)
        return results

    def eval_sequence(self, node: SeqNode, state: SymState) -> List[SymState]:
        states = [state]
        for command in node.commands:
            if states and all(st.halted for st in states):
                # every world already exited: the rest is dead code
                pos = getattr(command, "pos", None)
                diag = Diagnostic(
                    code="unreachable-command",
                    message="this command is unreachable: every execution "
                    "path has already exited",
                    severity=Severity.WARNING,
                    pos=pos,
                    always=True,
                )
                if not any(
                    d.code == "unreachable-command" and str(d.pos) == str(pos)
                    for d in states[0].diagnostics
                ):
                    states[0].warn(diag)
                break
            states = self.eval_many(command, states)
            if self._cond_depth == 0:
                for st in states:
                    # set -e: a failing command (outside any condition
                    # context) aborts the script
                    if (
                        not st.halted
                        and "e" in st.options
                        and st.status is not None
                        and st.status != 0
                    ):
                        st.halted = True
                        st.note("set -e: aborted on failure")
        return states

    def eval_background(self, node: Background, state: SymState) -> List[SymState]:
        # the child runs in a subshell: its effects may happen (and are
        # recorded, tagged with a fresh region so the hazard analysis
        # knows where they may interleave), but none of its shell state —
        # variables, cwd, `exit` — reaches the parent, which continues
        # immediately with status 0
        self._rec.count("effects.background_jobs")
        self._region_counter += 1
        region = self._region_counter
        origin = self._origin_for(node.command)
        saved = (
            dict(state.env),
            list(state.params),
            state.argv_unknown,
            state.argc_sym,
            dict(state.functions),
            state.cwd_node,
            state.cwd_str,
            state.halted,
            set(state.options),
            state.bg_jobs,
            state.bg_launched,
            state.loop_control,
        )
        state.loop_control = None
        job = BgJob(
            number=state.bg_launched + 1,
            region=region,
            label=origin.label,
            pos=origin.pos,
        )
        log = state.fs.log
        log.open_region(region, label=origin.label, origin=origin)
        prev_task = log.task
        log.task = region
        saved_depth = self.loop_depth
        self.loop_depth = 0
        try:
            results = self.eval(node.command, state)
        finally:
            self.loop_depth = saved_depth
        for result in results:
            result.fs.log.task = prev_task
            (
                env,
                params,
                argv_unknown,
                argc_sym,
                functions,
                cwd_node,
                cwd_str,
                halted,
                options,
                jobs,
                launched,
                loop_control,
            ) = saved
            result.env = dict(env)
            result.params = list(params)
            result.argv_unknown = argv_unknown
            result.argc_sym = argc_sym
            result.functions = dict(functions)
            result.cwd_node = cwd_node
            result.cwd_str = cwd_str
            result.halted = halted
            result.options = set(options)
            result.bg_jobs = jobs + (job,)
            result.bg_launched = launched + 1
            result.loop_control = loop_control
            result.status = 0
        return results

    def eval_subshell(self, node: Subshell, state: SymState) -> List[SymState]:
        child = self._fork(state, "subshell")
        # break/continue cannot cross the process boundary
        child.loop_control = None
        saved_depth = self.loop_depth
        self.loop_depth = 0
        try:
            subs = self.eval(node.body, child)
        finally:
            self.loop_depth = saved_depth
        results = []
        for sub in subs:
            sub.env = dict(state.env)
            sub.params = list(state.params)
            sub.argv_unknown = state.argv_unknown
            sub.argc_sym = state.argc_sym
            sub.functions = dict(state.functions)
            sub.cwd_node = state.cwd_node
            sub.cwd_str = state.cwd_str
            sub.halted = state.halted
            sub.bg_jobs = state.bg_jobs
            sub.bg_launched = state.bg_launched
            sub.loop_control = state.loop_control
            results.append(sub)
        return self._apply_redirect_list(node.redirects, results, owner=node)

    # -- control flow ---------------------------------------------------------------------

    def _fork_on_status(
        self, states: List[SymState], note: str
    ) -> Tuple[List[SymState], List[SymState]]:
        """Split states into (success, failure), forking unknowns."""
        success, failure = [], []
        for st in states:
            if st.halted:
                failure.append(st)  # halted states flow to the join
                continue
            outcome = st.succeeded()
            if outcome is True:
                success.append(st)
            elif outcome is False:
                failure.append(st)
            else:
                ok = self._fork(st, f"{note}: success")
                ok.status = 0
                bad = self._fork(st, f"{note}: failure")
                bad.status = 1
                success.append(ok)
                failure.append(bad)
        return success, failure

    def _eval_condition(self, node: Command, state: SymState) -> List[SymState]:
        self._cond_depth += 1
        try:
            return self.eval(node, state)
        finally:
            self._cond_depth -= 1

    def eval_if(self, node: If, state: SymState) -> List[SymState]:
        cond_states = self._eval_condition(node.cond, state)
        success, failure = self._fork_on_status(cond_states, "if-condition")
        results: List[SymState] = []
        for st in success:
            results.extend(self.eval(node.then, st) if not st.halted else [st])

        pending = [st for st in failure if not st.halted]
        results.extend(st for st in failure if st.halted)
        for clause in node.elifs:
            next_pending: List[SymState] = []
            for st in pending:
                cond_states = self._eval_condition(clause.cond, st)
                ok, bad = self._fork_on_status(cond_states, "elif-condition")
                for s in ok:
                    results.extend(self.eval(clause.then, s) if not s.halted else [s])
                next_pending.extend(bad)
            pending = next_pending
        if node.else_ is not None:
            for st in pending:
                results.extend(self.eval(node.else_, st) if not st.halted else [st])
        else:
            for st in pending:
                st.status = 0
                results.append(st)
        return self._apply_redirect_list(node.redirects, results, owner=node)

    def _route_loop_results(
        self,
        states: List[SymState],
        next_iteration: List[SymState],
        exits: List[SymState],
    ) -> List[SymState]:
        """Consume one level of pending break/continue at a loop boundary.

        States carrying no signal are returned (plain fall-through);
        ``continue`` states go to ``next_iteration``; ``break`` states go
        to ``exits``; multi-level signals decrement and keep propagating
        outward via ``exits``.
        """
        plain: List[SymState] = []
        for st in states:
            control = st.loop_control
            if control is None:
                plain.append(st)
                continue
            kind, level = control
            if level > 1:
                st.loop_control = (kind, level - 1)
                exits.append(st)
            elif kind == "break":
                st.loop_control = None
                exits.append(st)
            else:  # continue: back to the condition / next value
                st.loop_control = None
                next_iteration.append(st)
        return plain

    def eval_while(self, node: While, state: SymState) -> List[SymState]:
        exits: List[SymState] = []
        current = [state]
        self.loop_depth += 1
        try:
            for iteration in range(self.max_loop + 1):
                next_current: List[SymState] = []
                for st in current:
                    cond_states = self._route_loop_results(
                        self._eval_condition(node.cond, st), next_current, exits
                    )
                    success, failure = self._fork_on_status(
                        cond_states, "loop-condition"
                    )
                    if node.until:
                        success, failure = failure, success
                    exits.extend(failure)
                    if iteration < self.max_loop:
                        for s in success:
                            if s.halted:
                                exits.append(s)
                            else:
                                next_current.extend(
                                    self._route_loop_results(
                                        self.eval(node.body, s),
                                        next_current,
                                        exits,
                                    )
                                )
                    else:
                        # iteration budget exhausted: assume the loop ends
                        for s in success:
                            s.note("loop truncated at iteration bound")
                            exits.append(s)
                current = self._prune(next_current)
                if not current:
                    break
            for st in current:
                # a `continue` raised on the final budgeted iteration
                st.note("loop truncated at iteration bound")
                exits.append(st)
        finally:
            self.loop_depth -= 1
        for st in exits:
            if st.status is None:
                st.status = 0
        return self._apply_redirect_list(node.redirects, exits, owner=node)

    def eval_for(self, node: For, state: SymState) -> List[SymState]:
        # `for x` / `for x in "$@"` over an unknown argv: the known prefix
        # iterates concretely, then the unknown tail is explored as an
        # open-ended loop (zero or more further unknown values)
        open_tail = state.argv_unknown and (
            node.words is None or _is_bare_at(node.words)
        )
        if node.words is None or (open_tail and _is_bare_at(node.words)):
            values_per_state = [(state, list(state.params[1:]))]
        else:
            values_per_state = expand_words(node.words, state, self)
        results: List[SymState] = []
        self.loop_depth += 1
        try:
            for st, values in values_per_state:
                states = [st]
                exited: List[SymState] = []
                if not values and not open_tail:
                    for s in states:
                        s.status = 0
                    results.extend(states)
                    continue
                for value in values[: self.max_loop + 1]:
                    next_states: List[SymState] = []
                    for s in states:
                        if s.halted:
                            next_states.append(s)
                            continue
                        s.set_var(node.var, value)
                        next_states.extend(
                            self._route_loop_results(
                                self.eval(node.body, s), next_states, exited
                            )
                        )
                    states = self._prune(next_states)
                    if not states:
                        break
                if open_tail:
                    states = self._eval_open_tail(
                        node, states, exited, had_known=bool(values)
                    )
                results.extend(states)
                results.extend(exited)
        finally:
            self.loop_depth -= 1
        return self._apply_redirect_list(node.redirects, results, owner=node)

    def _eval_open_tail(
        self,
        node: For,
        states: List[SymState],
        exited: List[SymState],
        had_known: bool,
    ) -> List[SymState]:
        """Iterate a ``for`` body over the *unknown* tail of ``"$@"``:
        each round forks "the tail ends here" from "one more unknown
        value", bounded by ``max_loop`` like every other loop."""
        finished: List[SymState] = []
        pending = states
        for round_idx in range(self.max_loop + 1):
            next_pending: List[SymState] = []
            for s in pending:
                if s.halted:
                    finished.append(s)
                    continue
                stop = self._fork(s, "for: $@ tail ends here")
                if not had_known and round_idx == 0:
                    # zero iterations total: `for` exits with status 0
                    stop.status = 0
                finished.append(stop)
                if round_idx == self.max_loop:
                    s.note("loop truncated at iteration bound")
                    finished.append(s)
                    continue
                vid = s.store.fresh(label=f"${node.var} (from $@)")
                s.set_var(node.var, SymString.var(vid))
                next_pending.extend(
                    self._route_loop_results(
                        self.eval(node.body, s), next_pending, exited
                    )
                )
            pending = self._prune(next_pending)
            if not pending:
                break
        return finished

    def eval_case(self, node: Case, state: SymState) -> List[SymState]:
        results: List[SymState] = []
        for subj_state, subject in expand_word(node.subject, state, self):
            subject_lang = subject.to_regex(subj_state.store)
            remaining = subject_lang
            vid = subject.single_var()
            for item in node.items:
                pattern_lang = self._arm_language(item)
                if pattern_lang is None:
                    # dynamic pattern: may or may not match; explore the body
                    taken = self._fork(subj_state, "case: dynamic pattern taken")
                    if item.body is not None:
                        results.extend(self.eval(item.body, taken))
                    else:
                        results.append(taken.with_status(0))
                    continue

                feasible_lang = remaining & pattern_lang
                feasible = not feasible_lang.is_empty()
                if self.checkers:
                    # report against the *original* subject language so a
                    # pattern shadowed by earlier arms is not misreported
                    original_feasible = not (subject_lang & pattern_lang).is_empty()
                    for checker in self.checkers:
                        checker.on_case_arm(
                            subj_state, node, item, original_feasible, True
                        )
                if not feasible:
                    continue
                taken = self._fork(
                    subj_state,
                    f"case: matched {'|'.join(w.raw for w in item.patterns)}",
                )
                if vid is not None:
                    # the subject matched this arm AND fell through all
                    # earlier arms: refine with the remaining language
                    taken.store.refine(vid, feasible_lang)
                if item.body is not None:
                    results.extend(self.eval(item.body, taken))
                else:
                    results.append(taken.with_status(0))
                remaining = remaining - pattern_lang
                if remaining.is_empty():
                    break
            if not remaining.is_empty():
                fallthrough = self._fork(subj_state, "case: no pattern matched")
                if vid is not None:
                    fallthrough.store.refine(vid, remaining)
                fallthrough.status = 0
                results.append(fallthrough)
        return self._apply_redirect_list(node.redirects, results, owner=node)

    def _arm_language(self, item: CaseItem) -> Optional[Regex]:
        """The union of a case arm's pattern languages, or None when a
        pattern is dynamic; compiled once per run."""
        entry = self._arm_langs.get(id(item))
        if entry is not None and entry[0] is item:
            return entry[1]
        pattern_lang: Optional[Regex] = None
        for pattern in item.patterns:
            lang = word_pattern_to_regex(pattern)
            if lang is None:
                pattern_lang = None
                break
            pattern_lang = lang if pattern_lang is None else pattern_lang | lang
        self._arm_langs[id(item)] = (item, pattern_lang)
        return pattern_lang

    # -- state management -----------------------------------------------------------------

    def _prune(self, states: List[SymState]) -> List[SymState]:
        if len(states) <= 1:
            return states
        if self._budget is not None:
            # merge points are where wide fan-outs concentrate: re-check
            # the wall clock even between eval charges
            self._budget.check_deadline("symex")
        if self.prune:
            merged: Dict[tuple, SymState] = {}
            order: List[SymState] = []
            for st in states:
                key = (
                    st.status,
                    st.halted,
                    tuple(sorted((k, v) for k, v in st.env.items())),
                    tuple(st.params),
                    st.cwd_str,
                    len(st.stdout) if st.capturing else 0,
                    st.store.identity_key(),
                    st.bg_jobs,
                    st.loop_control,
                    st.argv_unknown,
                    # function bindings are state too: a path that redefined
                    # a function must not merge with one that kept the old
                    # body, or the redefinition silently vanishes at the
                    # next call site
                    tuple(
                        sorted((n, id(b)) for n, b in st.functions.items())
                    ),
                )
                if key in merged:
                    self.paths_merged += 1
                    self._rec.count("symex.states_merged")
                    # keep the first; append its diagnostics so none are lost
                    merged[key].diagnostics.extend(
                        d for d in st.diagnostics
                        if d not in merged[key].diagnostics
                    )
                else:
                    merged[key] = st
                    order.append(st)
            states = order
        if len(states) > self.max_fork:
            dropped = len(states) - self.max_fork
            self.truncations += 1
            rec = self._rec
            rec.count("symex.truncations")
            rec.count("symex.states_truncated", dropped)
            if rec.enabled:
                rec.observe("symex.truncation_drop", dropped)
            states = states[: self.max_fork]
        return states


class _DiagSink:
    """A state-like receiver for run-level (cross-path) diagnostics."""

    def __init__(self):
        self.diagnostics: List[Diagnostic] = []

    def warn(self, diagnostic: Diagnostic) -> None:
        self.diagnostics.append(diagnostic)


def _assigned_names(ast: Command) -> set:
    """Names assigned anywhere in a script (incl. for vars, read/export)."""
    from ..shell.ast import For, walk

    names = set()
    for node in walk(ast):
        if isinstance(node, SimpleCommand):
            for assignment in node.assignments:
                names.add(assignment.name)
            if node.name in ("read", "export", "local", "readonly", "unset") and node.words:
                for word in node.words[1:]:
                    text = word.literal_text() or ""
                    if text and not text.startswith("-"):
                        names.add(text.split("=", 1)[0])
            if node.name == "getopts" and len(node.words) >= 3:
                var = node.words[2].literal_text()
                if var:
                    names.add(var)
                names.update(("OPTARG", "OPTIND"))
        elif isinstance(node, For):
            names.add(node.var)
    return names


def _is_bare_at(words: Sequence[Word]) -> bool:
    """True for a word list that is exactly ``"$@"`` / ``$@`` / ``"$*"``
    — i.e. iterating the positional parameters themselves."""
    if len(words) != 1 or len(words[0].parts) != 1:
        return False
    part = words[0].parts[0]
    return (
        isinstance(part, ParamPart)
        and part.name in ("@", "*")
        and part.op is None
    )


def _static_argv(stage: Command) -> Optional[List[str]]:
    """The concrete argv of a pipeline stage, when fully static."""
    if not isinstance(stage, SimpleCommand):
        return None
    argv = []
    for word in stage.words:
        # a purely literal word (quotes removed) is static
        text_parts = []
        for part in word.parts:
            from ..shell.ast import LiteralPart

            if isinstance(part, LiteralPart):
                text_parts.append(part.text)
            else:
                return None
        argv.append("".join(text_parts))
    return argv if argv else None
