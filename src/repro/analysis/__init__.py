"""The end-to-end analyzer (public API).

The annotation, batch, cache and optimize names load on first use
(PEP 562), so a one-script ``repro-analyze`` imports none of those
modules unless its script has a ``# @`` annotation."""

from ..budget import AnalysisBudgetExceeded, ResourceBudget
from ..lazy import exports
from .analyzer import analyze
from .report import Report

#: lazily exported name -> the submodule defining it
_LAZY = {
    **dict.fromkeys(("AnnotationError", "AnnotationSet", "load_annotation_file",
                     "merge_annotations", "parse_annotations"), "annotations"),
    **dict.fromkeys(("BatchResult", "FileResult", "discover", "run_batch"), "batch"),
    "BatchConfig": "pipeline",
    **dict.fromkeys(("ResultCache", "cache_key", "default_cache_dir"), "cache"),
    **dict.fromkeys(("OptimizeBatchResult", "OptimizePlan", "build_plan",
                     "optimize_source"), "optimize"),
}
__getattr__ = exports(globals(), _LAZY)


__all__ = ["analyze", "Report", "parse_annotations", "AnnotationSet", "AnnotationError",
           "load_annotation_file", "merge_annotations",
           "BatchConfig", "BatchResult", "FileResult", "discover", "run_batch",
           "ResultCache", "cache_key", "default_cache_dir",
           "ResourceBudget", "AnalysisBudgetExceeded",
           "OptimizePlan", "OptimizeBatchResult", "build_plan",
           "optimize_source"]
