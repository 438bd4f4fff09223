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

Every fork of the walk's entry state records its fs events into one
journal, so a command's events count even on the branches that a merge
inside the command folded away.  Between top-level commands the walk
merges its states as every compound evaluation does, and joins the file
systems of the states it merges (``FileSystem.join``): a command that
may succeed or fail leaves one state whose facts hold on both paths, so
the carried set does not double at each such command.

The walk starts as ``analyze`` does (``analyzer.start_run``: the same
annotations, checkers and entry state) and ends as a run does, so it is
the script's race analysis as well: an optimize request explores the
script once, and compares its rewrite's hazards with ``race_keys``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..budget import AnalysisBudgetExceeded, ResourceBudget, use_budget
from ..diag import Diagnostic
from ..digraph import descendants, reachability, topological_generations
from ..fs import FsEvent, FsOp
from ..rlang.table import run_table
from ..shell.ast import Case, CmdSubPart, Command, For, FunctionDef, ParamPart
from ..shell.ast import Sequence as SeqNode, SimpleCommand, Word, walk
from ..symex.builtins import is_builtin
from ..symex.engine import command_assigned_names
from .analyzer import start_run

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
        commands: Sequence[Command] = (),
        race_keys: Optional[Counter] = None,
    ):
        self.effects = effects
        self.dependencies = deps
        #: the parsed top-level commands, one per effect (so a caller
        #: need not parse the script again)
        self.commands = list(commands)
        #: the symbolic evaluation ran out of budget part-way (commands
        #: past the trip point are conservatively marked external, so the
        #: graph stays sound but over-ordered: a partial schedule), or a
        #: checker crashed, so ``race_keys`` may miss hazards
        self.degraded = degraded
        self.degraded_reason = degraded_reason
        #: the race hazards of the walk, as :func:`race_keys` counts them
        self.race_keys = race_keys if race_keys is not None else Counter()
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


def _top_level_commands(ast: Command) -> List[Command]:
    if isinstance(ast, SeqNode):
        return list(ast.commands)
    return [ast]


def _vars_of(node: Command) -> Tuple[Set[str], Set[str]]:
    """(uses, defs) of shell variables, syntactically.

    Defs made *inside command substitutions* run in a subshell and never
    escape to the enclosing shell, so only the substitution's **uses**
    propagate (``X=$(Y=5; echo a)`` defines ``X``, not ``Y``).  ``for``
    loop variables, ``case`` subjects/patterns, compound-command redirect
    targets, and the variable-defining builtins (``read``/``export``/...)
    are all scanned.
    """
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

    for sub in walk(node, substitutions=False):
        words = [redirect.target for redirect in getattr(sub, "redirects", ())]
        if isinstance(sub, SimpleCommand):
            defs.update(command_assigned_names(sub))
            words += [assignment.value for assignment in sub.assignments] + sub.words
        elif isinstance(sub, For):
            defs.add(sub.var)
            words += sub.words or []
        elif isinstance(sub, Case):
            words += [sub.subject] + [pattern for item in sub.items for pattern in item.patterns]
        for word in words:
            scan_word(word)
    return uses, defs


def analyze_dependencies(
    source: str,
    budget: Optional[ResourceBudget] = None,
    **options,
) -> DependencyGraph:
    """Build the dependency graph of a script's top-level commands.

    The walk starts as ``analyze`` does: ``options`` are the keywords of
    :func:`~repro.analysis.analyzer.start_run`, with its defaults (argv
    unknown at entry).  It ends as a run does (``Engine.finish``), so the
    graph also carries the run's race hazards (``race_keys``): the
    baseline an optimize request compares its rewrite with.

    ``budget`` bounds the per-command symbolic evaluation (wall clock and
    state count).  On exhaustion the analysis does not raise: the command
    that tripped the budget and every later command are conservatively
    marked external (ordered after everything), and the returned graph
    carries ``degraded=True`` with the reason.  A checker that crashed
    degrades the graph too, as it degrades a report.
    """
    engine, ast, initial = start_run(source, **options)
    commands = _top_level_commands(ast)
    functions = _assigned_functions(ast)
    effects: List[CommandEffects] = []
    for index, command in enumerate(commands):
        uses, defs = _vars_of(command)
        raw = _render_command(command, source)
        # external until evaluated: a budget trip leaves the command that
        # tripped it and every later one conservatively ordered
        effects.append(CommandEffects(index, raw, var_uses=uses, var_defs=defs, external=True))

    if budget is not None:
        budget.start()
    degraded_reason: Optional[str] = None
    keys: Counter = Counter()
    # evaluates commands one by one rather than through Engine.run, so it
    # installs the run's language table and begins and finishes the run
    with use_budget(budget), run_table():
        engine.begin(ast)
        # every fork of the entry log records into the journal
        journal: List[FsEvent] = []
        initial.fs.log.journal = journal
        parent_of = initial.fs.table.parent
        states = [initial]
        try:
            for command, effect in zip(commands, effects):
                next_states = []
                for state in states:
                    next_states.extend(engine.eval(command, state))
                for event in journal:
                    if event.node is None:
                        continue
                    if event.op in _WRITES:
                        effect.writes.add(event.node)
                        # writing a node requires its ancestors to exist:
                        # record them as reads so `mkdir /d` -> `cmd >/d/f`
                        # yields a flow dependency
                        parent = parent_of[event.node]
                        while parent is not None:
                            effect.reads.add(parent)
                            parent = parent_of[parent]
                    elif event.op in _READS:
                        effect.reads.add(event.node)
                journal.clear()
                # the join Engine.eval_many applies, with the merged
                # states' file systems joined into the kept ones
                states = engine.merge_states(next_states, join_fs=True)
                effect.external = any(
                    isinstance(sub, SimpleCommand)
                    and sub.name is not None
                    and engine.registry.get(sub.name) is None
                    and not is_builtin(sub.name)
                    and sub.name not in functions
                    for sub in walk(command)
                )
            diagnostics = engine.finish(states)
        except AnalysisBudgetExceeded as exc:
            degraded_reason = str(exc)
        else:
            keys = race_keys(diagnostics)
            degraded_reason = next(
                (d.message for d in diagnostics if d.code == "internal-error"), None
            )

    deps = _derive_dependencies(effects)
    return DependencyGraph(
        effects,
        deps,
        degraded=degraded_reason is not None,
        degraded_reason=degraded_reason,
        commands=commands,
        race_keys=keys,
    )


def race_keys(diagnostics: Sequence[Diagnostic]) -> Counter:
    """The race hazards among ``diagnostics``, as a multiset of
    ``(code, message)``: what a rewrite's hazards are compared by."""
    return Counter((d.code, d.message) for d in diagnostics if d.code.startswith("race-"))


def _assigned_functions(ast: Command) -> Set[str]:
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
            # sorted: the first `via` must not depend on set order
            for node in sorted(earlier.writes & later.reads):
                add(i, j, "flow", f"node {node}")
            for node in sorted(earlier.reads & later.writes):
                add(i, j, "anti", f"node {node}")
            for node in sorted(earlier.writes & later.writes):
                add(i, j, "output", f"node {node}")
            for name in sorted(earlier.var_defs & later.var_uses):
                add(i, j, "var", f"${name}")
            for name in sorted(earlier.var_uses & later.var_defs):
                # WAR on a variable: reordering would let the later
                # redefinition clobber the value the earlier command read
                add(i, j, "var", f"${name} (write-after-read)")
            for name in sorted(earlier.var_defs & later.var_defs):
                add(i, j, "var", f"${name} (redefinition)")
            if earlier.external or later.external:
                add(i, j, "external", "opaque command effects")
    return deps



def _render_command(command: Command, source: str) -> str:
    pos = getattr(command, "pos", None)
    if pos is not None:
        lines = source.splitlines()
        if 0 < pos.line <= len(lines):
            return lines[pos.line - 1].strip()
    return type(command).__name__
