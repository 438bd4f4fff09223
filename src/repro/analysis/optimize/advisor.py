"""The optimization advisor: dependence-directed reordering plus
pipeline parallelizability, with a race-detector safety gate.

The script-level half lifts :mod:`~repro.analysis.deps`'s RAW/WAR/WAW
graph to concrete advice: topological generations of the dependence
graph become candidate ``&``-groups, minus any command whose semantics
would change inside a background subshell (assignments, state builtins,
function definitions).  The pipeline half classifies every stage via
:mod:`.classify`.

**The safety gate**: every suggested reordering is *re-analyzed*.  The
advisor synthesizes the rewritten script (group members under ``&`` plus
a ``wait`` barrier), runs the effect-graph race detector over it, and
compares hazards against the original.  A candidate group survives only
if the rewrite introduces **zero new hazards** — so the advisor provably
never suggests a transform that trips its own race detector.  Groups that
fail the gate are reported under ``rejected`` with the evidence.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Tuple

from ...obs import get_recorder
from ...shell import parse
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
from ..deps import _top_level_commands, analyze_dependencies
from ..pipeline import BatchConfig
from ..resilience import ResourceBudget
from .classify import STATE_BUILTINS, classify_pipeline
from .plan import OptimizePlan, ReorderGroup


def _via_stabilizer():
    """Symbolic fs node ids are process-global counters, so the raw
    ``node N`` labels differ between runs of the same script.  Renumber
    them in first-appearance order so plans are deterministic (cache,
    server, and inline runs must be byte-identical)."""
    import re

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
    nodes: List[Command],
    schedule: List[List[int]],
    groups_by_generation: Dict[int, List[int]],
) -> str:
    """The rewritten script: schedule order, with each chosen group's
    members backgrounded and joined by a ``wait`` barrier."""
    lines: List[str] = []
    for gen_index, generation in enumerate(schedule):
        group = groups_by_generation.get(gen_index, [])
        members = set(group)
        for index in generation:
            if index not in members:
                lines.append(render(nodes[index]))
        if group:
            for index in group:
                lines.append(f"{render(nodes[index])} &")
            lines.append("wait")
    return "\n".join(lines) + "\n"


def _race_keys(report) -> Counter:
    return Counter((d.code, d.message) for d in report.races())


def _verify(
    rewritten: str,
    config: BatchConfig,
    budget: Optional[ResourceBudget],
    baseline_keys: Counter,
    rec,
) -> Tuple[bool, Counter]:
    """Run the race detector over the rewritten script; safe iff zero
    hazards beyond the original's and the analysis fully completed."""
    rec.count("optimize.cross_checks")
    kwargs = config.analyze_kwargs()
    kwargs["races"] = True
    report = analyze(rewritten, budget=budget, **kwargs)
    new = _race_keys(report) - baseline_keys
    return (not new and not report.degraded), new


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
    trip point go conservative and the plan is marked — rather than
    raising.  Every analysis the plan runs re-arms the budget.
    """
    config = config if config is not None else BatchConfig()
    if budget is None:
        budget = config.budget()
    rec = get_recorder()
    plan = OptimizePlan(
        source_sha256=hashlib.sha256(source.encode("utf-8")).hexdigest()
    )
    with rec.span("optimize.run"):
        rec.count("optimize.runs")

        with rec.span("optimize.deps"):
            graph = analyze_dependencies(
                source, n_args=config.n_args or 0, budget=budget
            )
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

        nodes = _top_level_commands(parse(source))
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

        with rec.span("optimize.verify"):
            kept = _gate_candidates(
                source, nodes, plan, candidates, config, budget, rec
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
            plan.rewritten_script = _synthesize(nodes, plan.schedule, kept)
    return plan


def _gate_candidates(
    source: str,
    nodes: List[Command],
    plan: OptimizePlan,
    candidates: Dict[int, List[int]],
    config: BatchConfig,
    budget: Optional[ResourceBudget],
    rec,
) -> Dict[int, List[int]]:
    """The safety gate: accept the whole rewrite if it's clean, else
    verify group-by-group and re-verify the surviving combination."""
    if not candidates:
        return {}
    kwargs = config.analyze_kwargs()
    kwargs["races"] = True
    baseline = analyze(source, budget=budget, **kwargs)
    baseline_keys = _race_keys(baseline)
    if baseline.degraded:
        plan.degraded = True
        plan.degraded_reason = plan.degraded_reason or (
            "baseline race analysis incomplete; suggestions withheld"
        )
        for group in candidates.values():
            _reject(plan, rec, group, "baseline race analysis was degraded")
        return {}

    full = _synthesize(nodes, plan.schedule, candidates)
    ok, _ = _verify(full, config, budget, baseline_keys, rec)
    if ok:
        return candidates

    kept: Dict[int, List[int]] = {}
    for gen_index in sorted(candidates):
        group = candidates[gen_index]
        alone = _synthesize(nodes, plan.schedule, {gen_index: group})
        ok, new = _verify(alone, config, budget, baseline_keys, rec)
        if ok:
            kept[gen_index] = group
        else:
            _reject(plan, rec, group, _rejection_reason(new))
    if kept:
        combined = _synthesize(nodes, plan.schedule, kept)
        ok, new = _verify(combined, config, budget, baseline_keys, rec)
        if not ok:
            for gen_index in sorted(kept):
                _reject(
                    plan,
                    rec,
                    kept[gen_index],
                    "clean alone but "
                    + _rejection_reason(new)
                    + " in combination",
                )
            kept = {}
    return kept


def _reject(plan: OptimizePlan, rec, group: List[int], reason: str) -> None:
    rec.count("optimize.groups_rejected")
    plan.rejected.append({"commands": list(group), "reason": reason})


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

