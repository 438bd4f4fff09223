"""Effect-graph hazard analysis (file-system races over ``&``/``wait``).

The engine's event trace attributes every file-system access to the
command that caused it and to the task (foreground or background region)
that ran it; this package rebuilds the per-path effect graph from those
traces and reports interleaving hazards — write/write and read/write
races, reads missing a ``wait``, and check-then-use (TOCTOU) windows.

The graph and the hazard scan load on first use (PEP 562): the race
checker needs them only for a script with a background job.
"""

from ...lazy import exports
from .checker import RaceChecker

#: lazily exported name -> the submodule defining it
_LAZY = {
    **dict.fromkeys(("Access", "EffectGraph", "EffectNode", "Edge", "Window",
                     "build_effect_graph", "display_path"), "graph"),
    **dict.fromkeys(("Hazard", "find_hazards"), "hazards"),
}
__getattr__ = exports(globals(), _LAZY)

__all__ = [
    "Access",
    "EffectGraph",
    "EffectNode",
    "Edge",
    "Window",
    "Hazard",
    "RaceChecker",
    "build_effect_graph",
    "display_path",
    "find_hazards",
]
