"""The race checker: effect-graph hazard analysis as a Checker.

Runs once per exploration (in ``finish``): builds the effect graph of
every final state that started a background job, scans each for
interleaving hazards, and
aggregates the findings across paths (a race found on several paths is
reported once).  The graph and hazard modules load only then.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

from ...checkers.base import Checker
from ...diag import Diagnostic, Severity
from ...fs import FsOp
from ...obs import get_recorder


class RaceChecker(Checker):
    """Reports RACE-family hazards between interleavable commands."""

    name = "races"

    def finish(self, states: Sequence) -> List[Diagnostic]:
        rec = get_recorder()
        diagnostics: List[Diagnostic] = []
        seen: Set[Tuple] = set()
        with rec.span("analysis.effects"):
            # without background jobs nothing can interleave: a graph is
            # built only for a state that started one, and the graph
            # modules load only then
            graphed = [
                state
                for state in states
                if any(event.op is FsOp.BG_OPEN for event in state.fs.log)
            ]
            if not graphed:
                return diagnostics
            from .graph import build_effect_graph
            from .hazards import find_hazards

            for state in graphed:
                graph = build_effect_graph(state)
                rec.count("effects.graph_nodes", len(graph.nodes))
                open_regions = len(graph.open_at_exit)
                if open_regions:
                    rec.count("effects.regions_open_at_exit", open_regions)
                if not graph.windows:
                    continue
                for hazard in find_hazards(graph):
                    if hazard.key() in seen:
                        continue
                    seen.add(hazard.key())
                    diagnostics.append(
                        Diagnostic(
                            code=hazard.code,
                            message=hazard.message,
                            severity=Severity.WARNING,
                            pos=hazard.pos,
                            always=False,
                            witness=hazard.witness,
                            related=hazard.related,
                        )
                    )
            if diagnostics:
                rec.count("effects.conflicts", len(diagnostics))
        return diagnostics
