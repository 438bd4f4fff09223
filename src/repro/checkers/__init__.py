"""The incorrectness-criteria catalog (paper §4).

``PlatformChecker`` loads on first use (PEP 562): it runs only when the
analysis has platform targets."""

from ..lazy import exports
from .base import Checker
from .deletion import DangerousDeletionChecker
from .idempotence import IdempotenceChecker
from .streams import AlwaysFailsChecker, DeadCaseChecker, StreamTypeChecker


def default_checkers(platform_targets=None, races=True):
    """The standard catalog used by the analyzer.

    The engine isolates every checker's faults, these and any other: a
    crashing criterion yields an ``internal-error`` diagnostic and is
    disabled for the rest of the run instead of aborting the file (see
    :meth:`repro.symex.Engine.notify`).
    """
    checkers = [
        DangerousDeletionChecker(),
        StreamTypeChecker(),
        DeadCaseChecker(),
        AlwaysFailsChecker(),
        IdempotenceChecker(),
    ]
    if races:
        # imported lazily: the race checker lives in the analysis layer,
        # which itself imports this package
        from ..analysis.effects import RaceChecker

        checkers.append(RaceChecker())
    if platform_targets:
        from .platform import PlatformChecker

        checkers.append(PlatformChecker(platform_targets))
    return checkers


#: lazily exported name -> the submodule defining it
_LAZY = {"PlatformChecker": "platform"}
__getattr__ = exports(globals(), _LAZY)

__all__ = [
    "Checker",
    "default_checkers",
    "DangerousDeletionChecker",
    "StreamTypeChecker",
    "DeadCaseChecker",
    "AlwaysFailsChecker",
    "IdempotenceChecker",
    "PlatformChecker",
]
