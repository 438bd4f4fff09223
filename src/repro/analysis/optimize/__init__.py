"""Optimization-enabling dependence analysis (paper §5, "Performance").

The advisor combines two facts the analyzer already proves — the
RAW/WAR/WAW dependence graph over top-level commands (:mod:`..deps`)
and per-stage regular stream types (:mod:`repro.rtypes`) — into advice
a PaSh-like rewriter can act on: which pipeline stages split across
input chunks (and what merges the chunk outputs), and which whole
commands can safely run concurrently under ``&``.  Every reordering
suggestion is re-checked by the effect-graph race detector before it is
emitted.
"""

from .advisor import (
    OptimizeBatchResult,
    OptimizeFileResult,
    build_plan,
    optimize_source,
)
from .classify import classify_argv, classify_pipeline, classify_stage
from .plan import (
    BLOCKING,
    CLASSES,
    COMMUTATIVE,
    PARALLELIZABLE,
    PLAN_SCHEMA_VERSION,
    STATELESS,
    UNKNOWN,
    UNSAFE,
    OptimizePlan,
    PipelinePlan,
    ReorderGroup,
    SplitRange,
    StagePlan,
)
from .schema import load_schema, validate_plan

__all__ = [
    "OptimizePlan", "PipelinePlan", "StagePlan", "SplitRange", "ReorderGroup",
    "OptimizeBatchResult", "OptimizeFileResult",
    "build_plan", "optimize_source",
    "classify_argv", "classify_stage", "classify_pipeline",
    "load_schema", "validate_plan",
    "PLAN_SCHEMA_VERSION", "CLASSES",
    "STATELESS", "PARALLELIZABLE", "COMMUTATIVE", "BLOCKING", "UNSAFE",
    "UNKNOWN",
]
