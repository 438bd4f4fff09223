"""Regular types for stream contents (paper §3-§4).

Only :class:`StreamType` loads with the package.  The signature algebra
(``signatures``), the type library (``library``), pipeline inference
(``infer``) and the dataflow fixpoint (``dataflow``) load on first use
(PEP 562): the analyzer reaches them only for a typed pipeline, a spec
with a named stream type or an annotation."""

from ..lazy import exports
from .types import StreamType

__all__ = [
    "StreamType", "Signature", "TypeVarT", "TypeError_", "apply_signature",
    "simple", "identity", "filter_sig", "prefix_sig", "suffix_sig", "producer",
    "Concrete", "Var", "ConcatT", "Filtered", "Mapped",
    "check_pipeline", "PipelineTypes", "StageIssue", "StageIssueKind",
    "named_type", "named_type_names", "register_named_type", "type_of",
    "signature_for", "grep_line_language", "GENERAL_NUMERIC", "PRODUCES_ON_EMPTY",
    "DataflowGraph", "FixpointResult", "Stage", "ring_invariant",
]

#: lazily exported name -> the submodule defining it
_LAZY = {
    **dict.fromkeys(("Signature", "TypeVarT", "TypeError_", "apply_signature", "simple",
                     "identity", "filter_sig", "prefix_sig", "suffix_sig", "producer",
                     "Concrete", "Var", "ConcatT", "Filtered", "Mapped"), "signatures"),
    **dict.fromkeys(("named_type", "named_type_names", "register_named_type", "type_of",
                     "signature_for", "grep_line_language", "GENERAL_NUMERIC",
                     "PRODUCES_ON_EMPTY"), "library"),
    **dict.fromkeys(("check_pipeline", "PipelineTypes", "StageIssue", "StageIssueKind"),
                    "infer"),
    **dict.fromkeys(("DataflowGraph", "FixpointResult", "Stage", "ring_invariant"),
                    "dataflow"),
}
__getattr__ = exports(globals(), _LAZY)
