"""The end-to-end analyzer (public API).

The batch, cache and optimize names load on first use (PEP 562), so a
one-script ``repro-analyze`` does not import those modules."""

from importlib import import_module

from .analyzer import analyze
from .annotations import (
    AnnotationError,
    AnnotationSet,
    load_annotation_file,
    merge_annotations,
    parse_annotations,
)
from .report import Report
from .resilience import AnalysisBudgetExceeded, ResourceBudget

#: lazily exported name -> the submodule defining it
_LAZY = {
    **dict.fromkeys(("BatchResult", "FileResult", "discover", "run_batch"), "batch"),
    "BatchConfig": "pipeline",
    **dict.fromkeys(("ResultCache", "cache_key", "default_cache_dir"), "cache"),
    **dict.fromkeys(("OptimizeBatchResult", "OptimizePlan", "build_plan",
                     "optimize_source"), "optimize"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = ["analyze", "Report", "parse_annotations", "AnnotationSet", "AnnotationError",
           "load_annotation_file", "merge_annotations",
           "BatchConfig", "BatchResult", "FileResult", "discover", "run_batch",
           "ResultCache", "cache_key", "default_cache_dir",
           "ResourceBudget", "AnalysisBudgetExceeded",
           "OptimizePlan", "OptimizeBatchResult", "build_plan",
           "optimize_source"]
