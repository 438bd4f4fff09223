"""Read/write dependency analysis between commands (paper §5,
"Performance").

"Shell state and file system reasoning can identify read-write
dependencies between commands in a script, which would allow speculative
execution systems like hS to reorder commands without needing to guard
against misspeculation, and incremental execution systems like Riker to
reduce the runtime tracing overhead."

The analyzer evaluates a script's top-level commands in order on the
symbolic engine, attributing every file-system event to the command that
caused it (across *all* explored paths), then derives the classic
dependence relations on abstract fs nodes:

- RAW (flow): i writes a node j later reads  → j must follow i
- WAR (anti): i reads a node j later writes  → j must follow i
- WAW (output): both write the same node     → order preserved

Environment-variable def/use pairs contribute dependencies the same way.
Commands unrelated by any edge can be reordered or parallelised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..checkers import default_checkers
from ..digraph import descendants, reachability, topological_generations
from ..fs import FsOp
from ..shell import parse
from ..shell.ast import Command, Sequence as SeqNode, SimpleCommand, walk
from ..symex import Engine
from .resilience import AnalysisBudgetExceeded, ResourceBudget, use_budget

#: fs operations that constitute a write (mutation) vs a read
_WRITES = {FsOp.WRITE, FsOp.CREATE, FsOp.DELETE}
_READS = {FsOp.READ, FsOp.LIST, FsOp.STAT}


@dataclass
class CommandEffects:
    """Aggregated effects of one top-level command over all paths."""

    index: int
    source: str
    reads: Set[int] = field(default_factory=set)      # fs node ids
    writes: Set[int] = field(default_factory=set)
    var_uses: Set[str] = field(default_factory=set)
    var_defs: Set[str] = field(default_factory=set)
    external: bool = False  # unknown command: conservatively depends on all


@dataclass(frozen=True)
class Dependency:
    src: int
    dst: int
    kind: str   # "flow" | "anti" | "output" | "var" | "external"
    via: str    # human-readable cause

    def __str__(self) -> str:
        return f"{self.src} -> {self.dst} [{self.kind} via {self.via}]"


class DependencyGraph:
    def __init__(
        self,
        effects: List[CommandEffects],
        deps: List[Dependency],
        degraded: bool = False,
        degraded_reason: Optional[str] = None,
    ):
        self.effects = effects
        self.dependencies = deps
        #: the symbolic evaluation ran out of budget part-way: commands
        #: past the trip point are conservatively marked external, so the
        #: graph stays sound but over-ordered (a partial schedule)
        self.degraded = degraded
        self.degraded_reason = degraded_reason
        #: command index -> indices of the commands that must follow it
        self.successors: Dict[int, Set[int]] = {e.index: set() for e in effects}
        for dep in deps:
            self.successors[dep.src].add(dep.dst)

    def independent_pairs(self) -> List[Tuple[int, int]]:
        """Command pairs with no ordering requirement (reorderable)."""
        pairs = []
        n = len(self.effects)
        closure = reachability(self.successors)
        for i in range(n):
            for j in range(i + 1, n):
                if j not in closure[i] and i not in closure[j]:
                    pairs.append((i, j))
        return pairs

    def stages(self) -> List[List[int]]:
        """Parallel schedule: topological generations."""
        return [sorted(gen) for gen in topological_generations(self.successors)]

    def must_precede(self, i: int, j: int) -> bool:
        return j in descendants(self.successors, i)

    def render(self) -> str:
        lines = []
        for effect in self.effects:
            lines.append(f"[{effect.index}] {effect.source}")
        for dep in self.dependencies:
            lines.append(f"    {dep}")
        stages = self.stages()
        lines.append(
            "schedule: " + " | ".join("{" + ",".join(map(str, s)) + "}" for s in stages)
        )
        if self.degraded:
            lines.append(f"[degraded: {self.degraded_reason or 'budget exhausted'}]")
        return "\n".join(lines)


def _top_level_commands(source: str) -> List[Command]:
    ast = parse(source)
    if isinstance(ast, SeqNode):
        return list(ast.commands)
    return [ast]


#: builtins whose operands name variables they (re)define
_DEFINING_BUILTINS = {"read", "export", "local", "readonly", "unset"}


def _vars_of(node: Command) -> Tuple[Set[str], Set[str]]:
    """(uses, defs) of shell variables, syntactically.

    Defs made *inside command substitutions* run in a subshell and never
    escape to the enclosing shell, so only the substitution's **uses**
    propagate (``X=$(Y=5; echo a)`` defines ``X``, not ``Y``).  ``for``
    loop variables, ``case`` subjects/patterns, compound-command redirect
    targets, and the variable-defining builtins (``read``/``export``/...)
    are all scanned.
    """
    from ..shell.ast import (
        AndOr,
        Background,
        BraceGroup,
        Case,
        CmdSubPart,
        For,
        FunctionDef,
        If,
        ParamPart,
        Pipeline,
        Redirect,
        Sequence,
        Subshell,
        While,
        Word,
    )

    uses: Set[str] = set()
    defs: Set[str] = set()

    def scan_word(word: Word) -> None:
        for part in word.parts:
            if isinstance(part, ParamPart):
                uses.add(part.name)
                if part.arg is not None:
                    scan_word(part.arg)
                if part.op in ("=", ":="):
                    defs.add(part.name)
            elif isinstance(part, CmdSubPart):
                # subshell: reads come from the enclosing environment,
                # but assignments made inside never escape
                sub_uses, _sub_defs = _vars_of(part.command)
                uses.update(sub_uses)

    def scan_redirects(redirects: List[Redirect]) -> None:
        for redirect in redirects:
            scan_word(redirect.target)

    def scan(sub: Optional[Command]) -> None:
        if sub is None:
            return
        if isinstance(sub, SimpleCommand):
            for assignment in sub.assignments:
                defs.add(assignment.name)
                scan_word(assignment.value)
            for word in sub.words:
                scan_word(word)
            scan_redirects(sub.redirects)
            name = sub.name
            if name in _DEFINING_BUILTINS:
                for word in sub.words[1:]:
                    text = word.literal_text()
                    if text and not text.startswith("-"):
                        defs.add(text.split("=", 1)[0])
            elif name == "getopts" and len(sub.words) >= 3:
                text = sub.words[2].literal_text()
                if text:
                    defs.add(text)
                defs.update({"OPTIND", "OPTARG"})
        elif isinstance(sub, (Pipeline, Sequence)):
            for child in sub.commands:
                scan(child)
        elif isinstance(sub, AndOr):
            scan(sub.left)
            scan(sub.right)
        elif isinstance(sub, Background):
            scan(sub.command)
        elif isinstance(sub, (Subshell, BraceGroup)):
            scan(sub.body)
            scan_redirects(sub.redirects)
        elif isinstance(sub, If):
            scan(sub.cond)
            scan(sub.then)
            for clause in sub.elifs:
                scan(clause.cond)
                scan(clause.then)
            scan(sub.else_)
            scan_redirects(sub.redirects)
        elif isinstance(sub, While):
            scan(sub.cond)
            scan(sub.body)
            scan_redirects(sub.redirects)
        elif isinstance(sub, For):
            defs.add(sub.var)
            for word in sub.words or []:
                scan_word(word)
            scan(sub.body)
            scan_redirects(sub.redirects)
        elif isinstance(sub, Case):
            scan_word(sub.subject)
            for item in sub.items:
                for pattern in item.patterns:
                    scan_word(pattern)
                scan(item.body)
            scan_redirects(sub.redirects)
        elif isinstance(sub, FunctionDef):
            scan(sub.body)

    scan(node)
    return uses, defs


def analyze_dependencies(
    source: str,
    n_args: int = 0,
    budget: Optional[ResourceBudget] = None,
) -> DependencyGraph:
    """Build the dependency graph of a script's top-level commands.

    ``budget`` bounds the per-command symbolic evaluation (wall clock and
    state count).  On exhaustion the analysis does not raise: the command
    that tripped the budget and every later command are conservatively
    marked external (ordered after everything), and the returned graph
    carries ``degraded=True`` with the reason.
    """
    commands = _top_level_commands(source)
    engine = Engine(checkers=default_checkers(), budget=budget)
    engine.script_assigned = set()
    from ..symex.engine import _assigned_names

    ast = parse(source)
    engine.script_assigned = _assigned_names(ast)
    states = [engine.initial_state(n_args=n_args)]

    if budget is not None:
        budget.start()
    degraded = False
    degraded_reason: Optional[str] = None

    effects: List[CommandEffects] = []
    with use_budget(budget):
        for index, command in enumerate(commands):
            raw = _render_command(command, source)
            uses, defs = _vars_of(command)
            effect = CommandEffects(
                index=index, source=raw, var_uses=uses, var_defs=defs
            )
            if degraded:
                # past the budget trip: no evaluation, conservative order
                effect.external = True
                effects.append(effect)
                continue
            marks = [(state, len(state.fs.log)) for state in states]
            next_states = []
            try:
                for state, mark in marks:
                    for result in engine.eval(command, state):
                        for event in result.fs.log.since(mark):
                            if event.node is None:
                                continue
                            if event.op in _WRITES:
                                effect.writes.add(event.node)
                                # writing a node requires its ancestors to
                                # exist: record them as reads so `mkdir /d`
                                # -> `cmd >/d/f` yields a flow dependency
                                parent = result.fs.nodes[event.node].parent
                                while parent is not None:
                                    effect.reads.add(parent)
                                    parent = result.fs.nodes[parent].parent
                            elif event.op in _READS:
                                effect.reads.add(event.node)
                        next_states.append(result)
            except AnalysisBudgetExceeded as exc:
                degraded = True
                degraded_reason = str(exc)
                effect.external = True
                effects.append(effect)
                continue
            has_unknown = any(
                isinstance(sub, SimpleCommand)
                and sub.name is not None
                and engine.registry.get(sub.name) is None
                and not _is_builtin_name(sub.name)
                and sub.name not in _assigned_functions(ast)
                for sub in walk(command)
            )
            effect.external = has_unknown
            effects.append(effect)
            states = next_states[: engine.max_fork]

    deps = _derive_dependencies(effects)
    return DependencyGraph(
        effects, deps, degraded=degraded, degraded_reason=degraded_reason
    )


def _is_builtin_name(name: str) -> bool:
    from ..symex import builtins as builtins_mod

    return builtins_mod.is_builtin(name)


def _assigned_functions(ast: Command) -> Set[str]:
    from ..shell.ast import FunctionDef

    return {node.name for node in walk(ast) if isinstance(node, FunctionDef)}


def _derive_dependencies(effects: List[CommandEffects]) -> List[Dependency]:
    deps: List[Dependency] = []
    seen: Set[Tuple[int, int, str]] = set()

    def add(src: int, dst: int, kind: str, via: str):
        key = (src, dst, kind)
        if key not in seen:
            seen.add(key)
            deps.append(Dependency(src, dst, kind, via))

    for j, later in enumerate(effects):
        for i in range(j):
            earlier = effects[i]
            # sorted: the first `via` node must not depend on set order
            for node in sorted(earlier.writes & later.reads):
                add(i, j, "flow", f"node {node}")
            for node in sorted(earlier.reads & later.writes):
                add(i, j, "anti", f"node {node}")
            for node in sorted(earlier.writes & later.writes):
                add(i, j, "output", f"node {node}")
            for name in earlier.var_defs & later.var_uses:
                add(i, j, "var", f"${name}")
            for name in earlier.var_uses & later.var_defs:
                # WAR on a variable: reordering would let the later
                # redefinition clobber the value the earlier command read
                add(i, j, "var", f"${name} (write-after-read)")
            for name in earlier.var_defs & later.var_defs:
                add(i, j, "var", f"${name} (redefinition)")
            if earlier.external or later.external:
                add(i, j, "external", "opaque command effects")
    return deps


#: public alias: the pairwise RAW/WAR/WAW derivation is also the
#: invalidation structure for fragment-level incremental analysis
#: (repro.analysis.incremental builds synthetic per-fragment
#: CommandEffects rows and reuses exactly this edge derivation)
derive_dependencies = _derive_dependencies


def _render_command(command: Command, source: str) -> str:
    pos = getattr(command, "pos", None)
    if pos is not None:
        lines = source.splitlines()
        if 0 < pos.line <= len(lines):
            return lines[pos.line - 1].strip()
    return type(command).__name__
