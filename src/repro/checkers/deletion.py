"""Dangerous-deletion criterion: the Steam-bug class (paper §2).

A deletion is *dangerous* when the set of paths the operand may denote
includes the root, a direct child of the root, or a dot-normalised
equivalent — i.e. ``rm -fr`` may run against ``/*``.  The check is
performed on the operand's regular language, so it is robust to
semantically-equivalent syntactic variants like ``c="/*"; rm -fr
$STEAMROOT$c`` (§3).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..budget import dfa_state_cap
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
        finding = self.finding(operand, state.store)
        if finding is None:
            return
        code, witness, always = finding
        target = operand.describe(state.store)
        if code == "dangerous-deletion":
            message = (
                f"deletion target {target!r} can resolve inside the file-system root"
                + (" (recursively)" if recursive else "")
            )
            severity = Severity.ERROR
        else:
            message = f"deletion target {target!r} may be an entire home directory"
            severity = Severity.INFO
        state.warn(
            Diagnostic(
                code=code,
                message=message,
                severity=severity,
                pos=node.pos,
                always=always,
                witness=witness,
            )
        )

    def finding(self, operand: SymString, store) -> Optional[Tuple[str, str, bool]]:
        """``(code, witness, always)`` of the deletion's finding, or None.

        A concrete operand ``t`` denotes the one string ``t``: it meets
        the danger language iff the language matches ``t``, the witness
        is ``t`` and the finding holds always; a finite language never
        makes a home finding.  That skips automata only where none could
        trip the DFA-state cap: ``t``'s language has ``len(t) + 2``
        states and a product at most the product of its operands'
        states.  Otherwise the languages are built, so a tight cap
        degrades where it always did."""
        text = operand.concrete_value()
        if text is not None:
            danger = Regex.constant(DANGER_PATTERN)
            if (len(text) + 2) * (danger.dfa.n_states + 1) <= dfa_state_cap():
                return ("dangerous-deletion", text, True) if danger.matches(text) else None
        return self.language_finding(operand, store)

    def language_finding(self, operand: SymString, store) -> Optional[Tuple[str, str, bool]]:
        """:meth:`finding` decided on the operand's language."""
        lang = operand.to_regex(store)
        if lang.is_empty():
            return None

        danger = Regex.constant(DANGER_PATTERN)
        overlap = lang & danger
        if not overlap.is_empty():
            return "dangerous-deletion", overlap.example() or "", lang <= danger

        if self.include_home and not operand.has_glob():
            # `dir/*` deletes dir's children, never dir itself; only a
            # glob-free operand can denote a home directory as a whole
            overlap = lang & Regex.constant(HOME_PATTERN)
            if not overlap.is_empty() and not lang.is_finite():
                # a *symbolic* operand that may be exactly a home directory
                return "home-deletion", overlap.example() or "", False
        return None
