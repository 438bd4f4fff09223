"""Monitor placement planning (paper §4).

"Runtime monitoring protects computations adjacent to an untyped command
to ensure their type expectations are maintained" — this module decides
*where* the monitors go and *what* they check: for every pipeline stage
without a static signature, derive the output type its downstream
neighbour expects and the input type its upstream neighbour provides,
and emit a :class:`MonitorPlan` the runtime (or a wrapper generator)
executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..rtypes import (
    PRODUCES_ON_EMPTY,
    Signature,
    StreamType,
    TypeError_,
    apply_signature,
    signature_for,
)
from ..shell import parse
from ..shell.ast import Pipeline, walk
from ..symex.engine import _static_argv


@dataclass
class MonitorPlan:
    """One monitor insertion."""

    pipeline_source: str
    stage: int
    command: str
    #: check the stage's input against this type (None = unconstrained)
    input_type: Optional[StreamType]
    #: check the stage's output against this type (None = unconstrained)
    output_type: Optional[StreamType]

    def render(self) -> str:
        checks = []
        if self.input_type is not None:
            checks.append(f"stdin :: {self.input_type.describe()}")
        if self.output_type is not None:
            checks.append(f"stdout :: {self.output_type.describe()}")
        return (
            f"monitor stage {self.stage} ({self.command!r}) of "
            f"[{self.pipeline_source}]: " + "; ".join(checks)
        )

    def wrapper_command(self) -> str:
        """The shell rewriting that installs this monitor: the stage is
        wrapped by the `repro-monitor` higher-order command."""
        if self.output_type is not None and self.output_type.line.pattern:
            return (
                f"repro-monitor --type '{self.output_type.line.pattern}' "
                f"{self.command}"
            )
        return self.command


def plan_monitors(source: str) -> List[MonitorPlan]:
    """Monitor insertions for every untyped stage in a script's
    pipelines, with types inferred from adjacent stages."""
    plans: List[MonitorPlan] = []
    for node in walk(parse(source)):
        if not isinstance(node, Pipeline) or len(node.commands) < 2:
            continue
        argvs = []
        static = True
        for stage in node.commands:
            argv = _static_argv(stage)
            if argv is None:
                static = False
                break
            argvs.append(argv)
        if not static:
            continue
        plans.extend(_plan_pipeline(argvs))
    return plans


def _plan_pipeline(argvs: Sequence[Sequence[str]]) -> List[MonitorPlan]:
    signatures = [signature_for(argv) for argv in argvs]
    if all(sig is not None for sig in signatures):
        return []

    source = " | ".join(" ".join(argv) for argv in argvs)
    # forward pass: the type arriving at each stage
    incoming: List[Optional[StreamType]] = []
    current: Optional[StreamType] = StreamType.any()
    for signature in signatures:
        incoming.append(current)
        if signature is None or current is None:
            current = None  # unknown beyond an untyped stage
            continue
        if current.is_dead():
            current = StreamType.dead()
            continue
        try:
            current = apply_signature(signature, current)
        except TypeError_:
            current = None

    # backward pass: the type each stage's consumer expects on its input
    expected: List[Optional[StreamType]] = [None] * len(argvs)
    for idx in range(len(argvs) - 1):
        downstream = signatures[idx + 1]
        if downstream is None:
            continue
        expected[idx] = _domain_of(downstream)

    plans = []
    for idx, signature in enumerate(signatures):
        if signature is not None:
            continue
        plans.append(
            MonitorPlan(
                pipeline_source=source,
                stage=idx,
                command=" ".join(argvs[idx]),
                input_type=incoming[idx],
                output_type=expected[idx],
            )
        )
    return plans


def _domain_of(signature: Signature) -> Optional[StreamType]:
    """The input language a signature demands (its monitorable domain)."""
    from ..rtypes.signatures import Concrete, Var

    if isinstance(signature.input, Concrete):
        return StreamType(signature.input.lang)
    if isinstance(signature.input, Var):
        for tv in signature.vars:
            if tv.name == signature.input.name and tv.bound is not None:
                return StreamType(tv.bound)
        return None  # ∀α with no bound: any input is fine
    return None
