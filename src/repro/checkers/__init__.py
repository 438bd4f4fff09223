"""The incorrectness-criteria catalog (paper §4).

``PlatformChecker`` loads on first use (PEP 562): it runs only when the
analysis has platform targets."""

from ..lazy import exports
from .base import Checker
from .deletion import DangerousDeletionChecker
from .idempotence import IdempotenceChecker
from .streams import AlwaysFailsChecker, DeadCaseChecker, StreamTypeChecker


def default_checkers(platform_targets=None, races=True, isolate=True):
    """The standard catalog used by the analyzer.

    With ``isolate`` (the default) every checker is wrapped in a
    fault-isolation proxy: a crashing criterion yields an
    ``internal-error`` diagnostic and is disabled for the rest of the
    run instead of aborting the file (see
    :mod:`repro.analysis.resilience`).
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
    if isolate:
        from ..analysis.resilience import guard_checkers

        checkers = guard_checkers(checkers)
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
