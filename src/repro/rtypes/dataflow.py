"""Fixpoint type inference over (possibly cyclic) dataflow graphs.

Paper §4 "feedback loops and circular dataflow": crawlers, indexers,
and ML workloads wire commands into cycles, so types cannot simply be
threaded left to right.  Invariants are computed by the iterative least
fixpoint the paper sketches: start every stream at the empty language
(⊥), repeatedly apply each stage's signature with the union of its
incoming languages, and stop when no stream grows.  Monotone signatures
over a finite lattice region converge; a widening bound guards the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from graphlib import CycleError
from typing import Dict, List, Optional, Sequence, Tuple

from ..digraph import is_acyclic, simple_cycles, topological_generations
from ..rlang import Regex
from .signatures import Signature, TypeError_, apply_signature
from .types import StreamType


@dataclass
class Stage:
    """One node in the dataflow graph."""

    name: str
    signature: Optional[Signature] = None
    #: Source nodes inject this type regardless of inputs (e.g. ``cat seed``).
    seed: Optional[StreamType] = None


@dataclass
class FixpointResult:
    types: Dict[str, StreamType]
    iterations: int
    converged: bool
    widened: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    def type_of(self, stage: str) -> StreamType:
        return self.types[stage]


class DataflowGraph:
    """A graph of stream-processing stages; edges carry streams."""

    def __init__(self):
        self.stages: Dict[str, Stage] = {}
        #: stage -> successors / predecessors, each an insertion-ordered set
        self._succ: Dict[str, Dict[str, None]] = {}
        self._preds: Dict[str, Dict[str, None]] = {}

    def add_stage(
        self,
        name: str,
        signature: Optional[Signature] = None,
        seed: Optional[StreamType] = None,
    ) -> None:
        self.stages[name] = Stage(name, signature, seed)
        self._succ.setdefault(name, {})
        self._preds.setdefault(name, {})

    def connect(self, src: str, dst: str) -> None:
        if src not in self.stages or dst not in self.stages:
            raise KeyError("connect() requires both stages to exist")
        self._succ[src][dst] = None
        self._preds[dst][src] = None

    def has_cycle(self) -> bool:
        return not is_acyclic(self._succ)

    def cycles(self) -> List[List[str]]:
        return simple_cycles(self._succ)

    # -- fixpoint ------------------------------------------------------------

    def infer(self, max_iterations: int = 64) -> FixpointResult:
        """Iterative least-fixpoint inference of every stage's output type."""
        bottom = StreamType.dead()
        out: Dict[str, StreamType] = {name: bottom for name in self.stages}
        errors: List[str] = []

        # seed sources
        for name, stage in self.stages.items():
            if stage.seed is not None:
                out[name] = stage.seed

        iterations = 0
        changed = True
        try:
            order = [n for gen in topological_generations(self._succ) for n in gen]
        except CycleError:
            order = list(self.stages)
        while changed and iterations < max_iterations:
            changed = False
            iterations += 1
            for name in order:
                stage = self.stages[name]
                new_type = self._transfer(stage, out, errors)
                if not self._same(new_type, out[name]):
                    out[name] = new_type
                    changed = True

        widened: List[str] = []
        if changed:
            # did not converge: widen the still-unstable stages to ⊤
            for name in order:
                stage = self.stages[name]
                new_type = self._transfer(stage, out, [])
                if not self._same(new_type, out[name]):
                    out[name] = StreamType.any()
                    widened.append(name)
            # one more pass so downstream stages see the widened types
            for name in order:
                stage = self.stages[name]
                out[name] = self._transfer(stage, out, errors)

        return FixpointResult(
            types=out,
            iterations=iterations,
            converged=not changed,
            widened=widened,
            errors=errors,
        )

    def _transfer(
        self, stage: Stage, out: Dict[str, StreamType], errors: List[str]
    ) -> StreamType:
        preds = list(self._preds[stage.name])
        if not preds:
            if stage.seed is not None:
                return stage.seed
            input_type = StreamType.any()
        else:
            input_type = out[preds[0]]
            for pred in preds[1:]:
                input_type = input_type.union(out[pred])
            if stage.seed is not None:
                input_type = input_type.union(stage.seed)
        if stage.signature is None:
            return StreamType.any()
        if input_type.is_dead():
            return StreamType.dead()
        try:
            return apply_signature(stage.signature, input_type)
        except TypeError_ as exc:
            message = f"{stage.name}: {exc}"
            if message not in errors:
                errors.append(message)
            return StreamType.any()

    @staticmethod
    def _same(a: StreamType, b: StreamType) -> bool:
        return a.line == b.line


def ring_invariant(
    stages: Sequence[Tuple[str, Signature]],
    seed: StreamType,
    max_iterations: int = 64,
) -> FixpointResult:
    """Convenience: a feedback ring ``s0 -> s1 -> ... -> s0`` seeded at
    ``s0`` (the ``cat``/``tail -f`` entry the paper mentions)."""
    graph = DataflowGraph()
    for idx, (name, sig) in enumerate(stages):
        graph.add_stage(name, sig, seed=seed if idx == 0 else None)
    names = [name for name, _ in stages]
    for idx in range(len(names)):
        graph.connect(names[idx], names[(idx + 1) % len(names)])
    return graph.infer(max_iterations=max_iterations)
