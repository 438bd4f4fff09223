"""Regular types for stream contents (paper §3-§4).

Pipeline inference (``infer``) and the dataflow fixpoint (``dataflow``)
load on first use (PEP 562): the analyzer reaches them only for a
pipeline whose stages have static argv."""

from ..lazy import exports
from .library import (
    GENERAL_NUMERIC,
    PRODUCES_ON_EMPTY,
    grep_line_language,
    named_type,
    named_type_names,
    register_named_type,
    signature_for,
    type_of,
)
from .signatures import (
    ConcatT,
    Concrete,
    Filtered,
    Mapped,
    Signature,
    TypeError_,
    TypeVarT,
    Var,
    apply_signature,
    filter_sig,
    identity,
    prefix_sig,
    producer,
    simple,
    suffix_sig,
)
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
    **dict.fromkeys(("check_pipeline", "PipelineTypes", "StageIssue", "StageIssueKind"),
                    "infer"),
    **dict.fromkeys(("DataflowGraph", "FixpointResult", "Stage", "ring_invariant"),
                    "dataflow"),
}
__getattr__ = exports(globals(), _LAZY)
