"""Differential-testing campaigns and the precision benchmark.

A campaign takes N generator seeds (safe mode, so every script is
sandbox-executable) plus any corpus files, runs both oracles over each
script — metamorphic always, dynamic unless disabled — minimizes every
disagreement's reproducer, and aggregates per-checker FP/FN counts into
a deterministic benchmark document: same seeds, same counts, same
bytes.  Nothing host-specific (paths, timings, hostnames) reaches the
output, and keys are emitted sorted.

Fan-out is :func:`repro.analysis.batch.fan_out`: one pool future per
script, inline fallback when process pools are unavailable, an inline
retry under a tightened budget for a script whose worker died; results
are re-sorted by label so parallel and serial runs agree.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..resilience import ResourceBudget
from . import dynamic as dynamic_oracle
from . import metamorphic as metamorphic_oracle
from .dynamic import CHECKERS, Disagreement
from .gen import generate
from .minimize import minimize_lines

#: version stamp for the benchmark document format
BENCH_FORMAT = 1


@dataclass(frozen=True)
class CampaignConfig:
    """What one campaign runs.  Frozen + picklable (crosses the pool
    boundary); everything in here is reflected in the benchmark's
    ``config`` block so two documents are comparable only when their
    configs match."""

    seeds: Tuple[int, ...] = tuple(range(50))
    corpus: Tuple[str, ...] = ()
    exec_enabled: bool = True
    meta_enabled: bool = True
    timeout: float = 10.0
    minimize: bool = True
    #: fork bound for every analyze() in the campaign.  Deliberately
    #: tighter than the analyzer default: generated scripts can nest
    #: forking constructs pathologically, and the campaign only compares
    #: the analyzer against itself and against execution under ONE
    #: consistent configuration — so a smaller, faster state space is
    #: sound here and keeps 50-seed campaigns in CI territory.
    max_fork: int = 16

    def analyze_kwargs(self) -> dict:
        return {"max_fork": self.max_fork}

    def to_dict(self) -> dict:
        return {
            "corpus": sorted(os.path.basename(p) for p in self.corpus),
            "exec": self.exec_enabled,
            "format": BENCH_FORMAT,
            "max_fork": self.max_fork,
            "meta": self.meta_enabled,
            "seeds": list(self.seeds),
        }


@dataclass
class ScriptOutcome:
    """Both oracles' verdicts on one script."""

    label: str
    executed: bool = False
    skipped_reason: str = ""
    checked: List[str] = field(default_factory=list)
    disagreements: List[Disagreement] = field(default_factory=list)
    meta_applied: List[str] = field(default_factory=list)
    meta_diffs: List[str] = field(default_factory=list)  # rewrite names


@dataclass
class CampaignResult:
    """Aggregated campaign outcome; :meth:`to_bench_dict` is the
    serialized benchmark form."""

    config: CampaignConfig
    outcomes: List[ScriptOutcome] = field(default_factory=list)

    @property
    def disagreements(self) -> List[Tuple[str, Disagreement]]:
        return [
            (outcome.label, d)
            for outcome in self.outcomes
            for d in outcome.disagreements
        ]

    @property
    def metamorphic_diff_count(self) -> int:
        return sum(len(o.meta_diffs) for o in self.outcomes)

    def to_bench_dict(self) -> dict:
        checkers: Dict[str, Dict[str, int]] = {
            name: {"checked": 0, "fn": 0, "fp": 0} for name in CHECKERS
        }
        rewrites: Dict[str, Dict[str, int]] = {}
        executed = skipped = 0
        for outcome in self.outcomes:
            if outcome.executed:
                executed += 1
            elif outcome.skipped_reason:
                skipped += 1
            for name in outcome.checked:
                checkers[name]["checked"] += 1
            for disagreement in outcome.disagreements:
                checkers[disagreement.checker][disagreement.kind] += 1
            for name in outcome.meta_applied:
                rewrites.setdefault(name, {"applied": 0, "diffs": 0})
                rewrites[name]["applied"] += 1
            for name in outcome.meta_diffs:
                rewrites.setdefault(name, {"applied": 0, "diffs": 0})
                rewrites[name]["diffs"] += 1
        return {
            "checkers": checkers,
            "config": self.config.to_dict(),
            "disagreements": [
                dict(script=label, **d.to_dict())
                for label, d in sorted(
                    self.disagreements, key=lambda pair: (pair[0], pair[1].code)
                )
            ],
            "metamorphic": {
                "rewrites": rewrites,
                "total_diffs": self.metamorphic_diff_count,
            },
            "scripts": {
                "executed": executed,
                "skipped": skipped,
                "total": len(self.outcomes),
            },
        }

    def to_json(self) -> str:
        """The canonical byte form: sorted keys, stable separators,
        trailing newline."""
        return json.dumps(self.to_bench_dict(), indent=2, sort_keys=True) + "\n"


# -- per-script worker --------------------------------------------------------


def _minimize_meta(source: str, rewrite: str, analyze_kwargs: dict) -> str:
    def still_diffs(candidate: str) -> bool:
        result = metamorphic_oracle.check_source(candidate, **analyze_kwargs)
        return any(d.rewrite == rewrite for d in result.diffs)

    return minimize_lines(source, still_diffs, max_probes=40)


def _minimize_dynamic(
    source: str,
    disagreement: Disagreement,
    base_dir: str,
    label: str,
    config: "CampaignConfig",
    analyze_kwargs: dict,
) -> str:
    def still_disagrees(candidate: str) -> bool:
        result = dynamic_oracle.check_source(
            candidate, base_dir, f"{label}.min", timeout=config.timeout,
            analyze_kwargs=analyze_kwargs,
        )
        return any(
            d.checker == disagreement.checker and d.kind == disagreement.kind
            for d in result.disagreements
        )

    return minimize_lines(source, still_disagrees, max_probes=16)


def run_one(
    source: str,
    label: str,
    config: CampaignConfig,
    base_dir: str,
    budget: Optional[ResourceBudget] = None,
) -> dict:
    """Campaign body for one script (module-level so it pickles).

    The return value is a plain dict so it crosses the pool boundary;
    ``budget`` bounds every analysis (the fan-out's retry sets it).
    """
    analyze_kwargs = dict(config.analyze_kwargs(), budget=budget)
    outcome = {
        "label": label,
        "executed": False,
        "skipped_reason": "",
        "checked": [],
        "disagreements": [],
        "meta_applied": [],
        "meta_diffs": [],
    }
    if config.meta_enabled:
        meta = metamorphic_oracle.check_source(source, **analyze_kwargs)
        outcome["meta_applied"] = list(meta.rewrites_applied)
        outcome["meta_diffs"] = [d.rewrite for d in meta.diffs]
        if config.minimize:
            for diff in meta.diffs:
                minimized = _minimize_meta(source, diff.rewrite, analyze_kwargs)
                outcome["disagreements"].append(
                    {
                        "checker": "metamorphic",
                        "kind": "diff",
                        "code": f"rewrite:{diff.rewrite}",
                        "detail": (
                            f"diagnostics change under the {diff.rewrite} "
                            "rewrite"
                        ),
                        "reproducer": source,
                        "minimized": minimized,
                    }
                )
    if config.exec_enabled:
        result = dynamic_oracle.check_source(
            source, base_dir, label, timeout=config.timeout,
            analyze_kwargs=analyze_kwargs,
        )
        outcome["executed"] = result.executed
        outcome["skipped_reason"] = result.skipped_reason
        outcome["checked"] = list(result.checked)
        for disagreement in result.disagreements:
            minimized = (
                _minimize_dynamic(
                    source, disagreement, base_dir, label, config, analyze_kwargs
                )
                if config.minimize
                else ""
            )
            record = disagreement.to_dict()
            if minimized:
                record["minimized"] = minimized
            outcome["disagreements"].append(record)
    return outcome


def _outcome_from_dict(data: dict) -> ScriptOutcome:
    meta_disagreements = []
    dyn_disagreements = []
    for record in data["disagreements"]:
        target = (
            meta_disagreements
            if record["checker"] == "metamorphic"
            else dyn_disagreements
        )
        target.append(
            Disagreement(
                checker=record["checker"],
                kind=record["kind"],
                code=record["code"],
                detail=record["detail"],
                reproducer=record["reproducer"],
                minimized=record.get("minimized", ""),
            )
        )
    return ScriptOutcome(
        label=data["label"],
        executed=data["executed"],
        skipped_reason=data["skipped_reason"],
        checked=list(data["checked"]),
        disagreements=meta_disagreements + dyn_disagreements,
        meta_applied=list(data["meta_applied"]),
        meta_diffs=list(data["meta_diffs"]),
    )


# -- the campaign -------------------------------------------------------------


def _campaign_items(
    config: CampaignConfig, base_dir: str
) -> List[Tuple[str, str, CampaignConfig, str]]:
    """``run_one`` arguments: ``(source, label, config, base_dir)``."""
    items: List[Tuple[str, str, CampaignConfig, str]] = []
    for seed in config.seeds:
        items.append(
            (generate(seed, safe=True), f"seed-{seed:05d}", config, base_dir)
        )
    for path in sorted(config.corpus):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError:
            continue
        items.append((source, f"corpus-{os.path.basename(path)}", config, base_dir))
    return items


def run_campaign(
    config: Optional[CampaignConfig] = None,
    base_dir: Optional[str] = None,
    jobs: Optional[int] = None,
) -> CampaignResult:
    """Run the full campaign; ``jobs=None`` means ``os.cpu_count()``.

    Sandboxes live under ``base_dir`` (a fresh temporary directory when
    None, removed afterwards).  Output order and content are
    independent of ``jobs``.
    """
    from ..batch import fan_out  # lazily: importing the config stays light

    config = config if config is not None else CampaignConfig()
    if jobs is None:
        jobs = os.cpu_count() or 1
    owned_tmp = None
    if base_dir is None:
        owned_tmp = tempfile.TemporaryDirectory(prefix="repro-difftest-")
        base_dir = owned_tmp.name
    try:
        items = _campaign_items(config, base_dir)
        raw = [outcome for outcome, _, _ in fan_out(run_one, items, jobs, prefix="difftest")]
        raw.sort(key=lambda data: data["label"])
        return CampaignResult(
            config=config,
            outcomes=[_outcome_from_dict(data) for data in raw],
        )
    finally:
        if owned_tmp is not None:
            owned_tmp.cleanup()


# -- baseline comparison ------------------------------------------------------


def compare_to_baseline(bench: dict, baseline: dict) -> List[str]:
    """Regressions of ``bench`` relative to ``baseline`` (empty = pass).

    A regression is any per-checker FP/FN count above baseline or any
    metamorphic diff when the baseline has none; improvements (counts
    below baseline) pass and should prompt a baseline refresh.
    """
    problems: List[str] = []
    base_checkers = baseline.get("checkers", {})
    for name, counts in bench.get("checkers", {}).items():
        allowed = base_checkers.get(name, {"fn": 0, "fp": 0})
        for kind in ("fp", "fn"):
            if counts.get(kind, 0) > allowed.get(kind, 0):
                problems.append(
                    f"{name}: {kind} count {counts[kind]} exceeds baseline "
                    f"{allowed.get(kind, 0)}"
                )
    base_meta = baseline.get("metamorphic", {}).get("total_diffs", 0)
    got_meta = bench.get("metamorphic", {}).get("total_diffs", 0)
    if got_meta > base_meta:
        problems.append(
            f"metamorphic: {got_meta} diff(s) exceed baseline {base_meta}"
        )
    return problems
