"""Dangerous-deletion criterion: the Steam-bug class (paper §2).

A deletion is *dangerous* when the set of paths the operand may denote
includes the root, a direct child of the root, or a dot-normalised
equivalent — i.e. ``rm -fr`` may run against ``/*``.  The check is
performed on the operand's regular language, so it is robust to
semantically-equivalent syntactic variants like ``c="/*"; rm -fr
$STEAMROOT$c`` (§3).
"""

from __future__ import annotations

from ..diag import Diagnostic, Severity
from ..rlang import Regex
from ..shell.ast import SimpleCommand
from ..symstr import SymString
from .base import Checker

#: Paths that touch the root when deleted: "/", "//", "/x", "/./x",
#: "/../x", ... (a leading run of slashes and dot segments followed by at
#: most one real segment, optionally followed by trailing slashes and dot
#: segments — ``rm -rf /opt/`` and ``rm -rf /opt/..`` are just as fatal
#: as ``rm -rf /opt``).
DANGER_PATTERN = r"/+((\.{1,2})/+)*(\.{1,2}|[^/\n]*)(/+(\.{1,2})?)*"

#: Home-directory deletions: ~ or $HOME directly.
HOME_PATTERN = r"/home/[^/\n]+/?|/root/?"

class DangerousDeletionChecker(Checker):
    name = "dangerous-deletion"

    def __init__(self, include_home: bool = True):
        self.include_home = include_home

    def on_delete(
        self,
        state,
        node: SimpleCommand,
        operand: SymString,
        recursive: bool,
    ) -> None:
        lang = operand.to_regex(state.store)
        if lang.is_empty():
            return

        danger = Regex.constant(DANGER_PATTERN)
        overlap = lang & danger
        if not overlap.is_empty():
            witness = overlap.example() or ""
            always = lang <= danger
            state.warn(
                Diagnostic(
                    code="dangerous-deletion",
                    message=(
                        f"deletion target {operand.describe(state.store)!r} can "
                        f"resolve inside the file-system root"
                        + (" (recursively)" if recursive else "")
                    ),
                    severity=Severity.ERROR,
                    pos=node.pos,
                    always=always,
                    witness=witness,
                )
            )
            return

        if self.include_home and not operand.has_glob():
            # `dir/*` deletes dir's children, never dir itself; only a
            # glob-free operand can denote a home directory as a whole
            overlap = lang & Regex.constant(HOME_PATTERN)
            if not overlap.is_empty() and not lang.is_finite():
                # a *symbolic* operand that may be exactly a home directory
                state.warn(
                    Diagnostic(
                        code="home-deletion",
                        message=(
                            f"deletion target {operand.describe(state.store)!r} "
                            "may be an entire home directory"
                        ),
                        severity=Severity.INFO,
                        pos=node.pos,
                        witness=overlap.example() or "",
                    )
                )
