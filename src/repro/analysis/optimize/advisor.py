"""The optimization advisor: dependence-directed reordering plus
pipeline parallelizability, with a race-detector safety gate.

The script-level half lifts :mod:`~repro.analysis.deps`'s RAW/WAR/WAW
graph to concrete advice: topological generations of the dependence
graph become candidate ``&``-groups, minus any command whose semantics
would change inside a background subshell (assignments, state builtins,
function definitions).  The pipeline half classifies every stage via
:mod:`.classify`.

**The safety gate**: the suggested reordering is *re-analyzed*.  The
advisor synthesizes the rewritten script (every group's members under
``&`` plus a ``wait`` barrier), runs the effect-graph race detector over
it once, and compares hazards against the original's, which the
dependence walk found (it is the request's baseline race run, so the
script is explored once).  The groups survive only if the rewrite
introduces **zero new hazards** — so the advisor provably never suggests
a transform that trips its own race detector.  Otherwise every group is
reported under ``rejected`` with the rewrite's evidence.  A request thus
runs symbolic execution at most twice.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from ...budget import ResourceBudget
from ...obs import get_recorder
from ...rlang.table import run_table
from ...shell.ast import (
    Background,
    Command,
    FunctionDef,
    Pipeline,
    SimpleCommand,
    walk,
)
from ...shell.printer import render
from ..analyzer import analyze
from ..annotations import annotation_lines
from ..deps import DependencyGraph, analyze_dependencies, race_keys
from ..pipeline import BatchConfig
from .classify import STATE_BUILTINS, classify_pipeline
from .plan import OptimizePlan, ReorderGroup


def _via_stabilizer():
    """Symbolic fs node ids are counted per run, so a raw ``node N``
    label numbers every path the run resolved, the unused ones too.
    Renumber them in first-appearance order, so a label counts only the
    nodes the plan names (cache, server and inline runs render the
    same bytes)."""
    seen: Dict[str, int] = {}

    def stabilize(via: str) -> str:
        def repl(match) -> str:
            raw = match.group(1)
            if raw not in seen:
                seen[raw] = len(seen)
            return f"node n{seen[raw]}"

        return re.sub(r"node (\d+)", repl, via)

    return stabilize


# ---------------------------------------------------------------------------
# pinning: commands whose meaning changes under `&`
# ---------------------------------------------------------------------------


def _pin_reason(node: Command, var_defs) -> Optional[str]:
    """Why this top-level command must never be backgrounded, or None."""
    if isinstance(node, Background):
        return "already backgrounded"
    if isinstance(node, FunctionDef):
        return "function definitions must stay in the parent shell"
    state = sorted(
        {
            sub.name
            for sub in walk(node)
            if isinstance(sub, SimpleCommand) and sub.name in STATE_BUILTINS
        }
    )
    if state:
        return f"state builtin(s) {', '.join(state)} would run in a subshell"
    if var_defs:
        names = ", ".join(f"${name}" for name in sorted(var_defs))
        return f"assignment(s) to {names} would not survive a '&' subshell"
    return None


# ---------------------------------------------------------------------------
# rewrite synthesis + race-detector cross-check
# ---------------------------------------------------------------------------


def _synthesize(
    head: List[str],
    nodes: List[Command],
    schedule: List[List[int]],
    groups_by_generation: Dict[int, List[int]],
) -> Tuple[str, List[Optional[int]]]:
    """The rewritten script: the source's annotation lines (``head``),
    then the commands in schedule order, with each chosen group's
    members backgrounded and joined by a ``wait`` barrier; and the
    top-level command on each of its lines (None on an annotation or a
    ``wait``)."""
    lines: List[Tuple[str, Optional[int]]] = [(line, None) for line in head]
    for gen_index, generation in enumerate(schedule):
        group = groups_by_generation.get(gen_index, [])
        for index in generation:
            if index not in group:
                lines.append((render(nodes[index]), index))
        if group:
            lines.extend((f"{render(nodes[index])} &", index) for index in group)
            lines.append(("wait", None))
    owners = [owner for text, owner in lines for _ in range(text.count("\n") + 1)]
    return "\n".join(text for text, _ in lines) + "\n", owners


#: a position a race message cites
_CITED = re.compile(r"\((\d+):(\d+)\)")


def _by_command(keys: Counter, command_at: Callable[[int, int], Optional[int]]) -> Counter:
    """Race keys with each cited ``(line:column)`` replaced by the
    top-level command there: a rewrite moves commands to other lines,
    and a hazard it only moved keeps its key."""
    result: Counter = Counter()
    for (code, message), count in keys.items():
        cited = _CITED.sub(lambda m: f"(command {command_at(int(m[1]), int(m[2]))})", message)
        result[code, cited] += count
    return result


def _rejection_reason(new_hazards: Counter) -> str:
    if not new_hazards:
        return "race-detector re-analysis did not complete (degraded)"
    codes = sorted({code for code, _ in new_hazards})
    total = sum(new_hazards.values())
    return (
        f"re-analysis of the rewrite surfaced {total} new hazard(s): "
        + ", ".join(codes)
    )


# ---------------------------------------------------------------------------
# the advisor
# ---------------------------------------------------------------------------


def build_plan(
    source: str,
    config: Optional[BatchConfig] = None,
    budget: Optional[ResourceBudget] = None,
) -> OptimizePlan:
    """The full optimization plan for one script.

    Budget exhaustion (``config.timeout`` / ``config.max_states``, or
    ``budget`` when given) degrades the plan — dependence edges past the
    trip point go conservative, the plan is marked and its groups are
    withheld — rather than raising.  The dependence walk and the rewrite
    check each re-arm the budget.
    """
    config = config if config is not None else BatchConfig()
    if budget is None:
        budget = config.budget()
    rec = get_recorder()
    plan = OptimizePlan(
        source_sha256=hashlib.sha256(source.encode("utf-8")).hexdigest()
    )
    # one language table for the whole request: deps (the baseline),
    # classify and the rewrite check share leaves and constructions; it
    # is dropped when the request returns or raises
    with rec.span("optimize.run"), run_table():
        rec.count("optimize.runs")

        # both runs start alike: the config's run options with the race
        # checker on, as the gate compares race hazards; neither lints
        options = {**config.analyze_kwargs(), "races": True}
        del options["include_lint"]
        with rec.span("optimize.deps"):
            graph = analyze_dependencies(source, budget, **options)
        plan.degraded = graph.degraded
        plan.degraded_reason = graph.degraded_reason
        plan.commands = [effect.source for effect in graph.effects]
        stabilize = _via_stabilizer()
        plan.dependencies = [
            {
                "src": dep.src,
                "dst": dep.dst,
                "kind": dep.kind,
                "via": stabilize(dep.via),
            }
            for dep in graph.dependencies
        ]
        plan.schedule = graph.stages()

        nodes = graph.commands
        with rec.span("optimize.classify"):
            for index, node in enumerate(nodes):
                for sub in walk(node):
                    if isinstance(sub, Pipeline) and len(sub.commands) >= 2:
                        line = sub.pos.line if sub.pos else 0
                        pipe = classify_pipeline(sub, index, line)
                        plan.pipelines.append(pipe)
                        rec.count("optimize.pipelines")
                        rec.count("optimize.stages", len(pipe.stages))

        pinned: Dict[int, str] = {}
        for index, node in enumerate(nodes):
            reason = _pin_reason(node, graph.effects[index].var_defs)
            if reason is not None:
                pinned[index] = reason
                plan.pinned.append({"command": index, "reason": reason})

        # a topological generation is an antichain of the dependence
        # graph: its unpinned members are the candidate `&`-groups
        candidates: Dict[int, List[int]] = {}
        for gen_index, generation in enumerate(plan.schedule):
            free = [index for index in generation if index not in pinned]
            if len(free) >= 2:
                candidates[gen_index] = free

        # the rewrite keeps the annotations the walk ran under
        head = annotation_lines(source)
        with rec.span("optimize.verify"):
            kept = _gate_candidates(
                head, nodes, plan, candidates, graph, options, budget, rec
            )

        for gen_index in sorted(kept):
            group = kept[gen_index]
            rec.count("optimize.groups")
            plan.groups.append(
                ReorderGroup(
                    commands=list(group),
                    sources=[plan.commands[index] for index in group],
                    verified=True,
                    justification=(
                        f"no dependence edge among commands "
                        f"{{{','.join(map(str, group))}}} (generation "
                        f"{gen_index} of the schedule); rewrite re-analyzed "
                        f"with zero new race hazards"
                    ),
                )
            )
        if kept:
            plan.rewritten_script = _synthesize(head, nodes, plan.schedule, kept)[0]
    return plan


def _gate_candidates(
    head: List[str],
    nodes: List[Command],
    plan: OptimizePlan,
    candidates: Dict[int, List[int]],
    graph: DependencyGraph,
    options: dict,
    budget: Optional[ResourceBudget],
    rec,
) -> Dict[int, List[int]]:
    """The safety gate: one race analysis of the rewrite that backgrounds
    every candidate group.  It passes when that analysis completes and
    shows no hazard beyond the dependence walk's own (the baseline),
    compared by the top-level commands each hazard cites; otherwise every
    group is rejected with its evidence."""
    if not candidates:
        return {}
    if graph.degraded:
        reason = "baseline race analysis was degraded"
    else:
        rec.count("optimize.cross_checks")
        full, owners = _synthesize(head, nodes, plan.schedule, candidates)
        report = analyze(full, budget=budget, **options)
        # hazards are compared by the commands they cite, not the lines:
        # a source line may hold several commands, and the rewrite puts
        # each on lines of its own
        at: Dict[tuple, int] = {}
        for index, node in enumerate(nodes):
            for sub in walk(node):
                at.setdefault((sub.pos.line, sub.pos.col), index)
        baseline = _by_command(graph.race_keys, lambda *pos: at.get(pos))
        rewrite = _by_command(race_keys(report.diagnostics), lambda line, _: owners[line - 1])
        new = rewrite - baseline
        if not new and not report.degraded:
            return candidates
        reason = _rejection_reason(new)
    for gen_index in sorted(candidates):
        rec.count("optimize.groups_rejected")
        plan.rejected.append({"commands": list(candidates[gen_index]), "reason": reason})
    return {}


def optimize_source(
    source: str,
    config: Optional[BatchConfig] = None,
    budget: Optional[ResourceBudget] = None,
) -> dict:
    """One script's serialized plan; never raises (the ``optimize``
    op's worker body)."""
    config = config if config is not None else BatchConfig()
    try:
        return build_plan(source, config, budget).to_dict()
    except Exception as exc:  # noqa: BLE001 — per-file isolation
        plan = OptimizePlan(
            source_sha256=hashlib.sha256(source.encode("utf-8")).hexdigest(),
            degraded=True,
            degraded_reason=f"internal error: {type(exc).__name__}: {exc}",
        )
        return plan.to_dict()


# ---------------------------------------------------------------------------
# batch results (the batch driver is analysis.batch.run_batch)
# ---------------------------------------------------------------------------


@dataclass
class OptimizeFileResult:
    path: str
    plan: OptimizePlan
    cached: bool = False
    seconds: float = 0.0
    #: the worker died and the bounded inline retry failed too
    quarantined: bool = False


@dataclass
class OptimizeBatchResult:
    results: List[OptimizeFileResult] = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    file_type: ClassVar[type] = OptimizeFileResult
    unsafe = False

    @property
    def degraded(self) -> bool:
        return any(r.plan.degraded for r in self.results)

    def render(self) -> str:
        """Per-file plan blocks plus a corpus summary; free of timing and
        cache details so warm reruns render byte-identically."""
        blocks = [
            f"== {result.path} ==\n{result.plan.render()}"
            for result in self.results
        ]
        groups = sum(len(r.plan.groups) for r in self.results)
        splits = sum(
            len(p.splits) for r in self.results for p in r.plan.pipelines
        )
        pipelines = sum(len(r.plan.pipelines) for r in self.results)
        summary = (
            f"{len(self.results)} file(s) planned: {groups} '&'-group(s), "
            f"{splits} split(s) across {pipelines} pipeline(s)"
        )
        degraded = sum(1 for r in self.results if r.plan.degraded)
        if degraded:
            summary += f"; {degraded} file(s) degraded"
        blocks.append(summary)
        return "\n\n".join(blocks)

