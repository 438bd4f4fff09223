"""Idempotence criterion (paper §4, citing the CoLiS project [15]).

Installation scripts should be safely re-runnable.  Commands that
succeed on the first run and fail on the second — `mkdir` without `-p`,
`ln -s` without `-f` — are idempotence hazards.  The engine's fs model
additionally catches the stronger form (a second run *within* the same
script, e.g. two `mkdir X`) as an always-fails contradiction.
"""

from __future__ import annotations

from typing import List, Optional

from ..diag import Diagnostic, Severity
from ..fs import Existence, NodeKind, parse_sympath
from ..shell.ast import SimpleCommand
from .base import Checker

#: (command, flag that makes it idempotent, flags that exempt)
_HAZARDS = {
    "mkdir": ("-p", "re-running fails because the directory already exists"),
    "ln": ("-f", "re-running fails because the link target already exists"),
}


class IdempotenceChecker(Checker):
    name = "idempotence"

    def on_command(self, state, node: SimpleCommand, argv, spec) -> None:
        name = node.name
        if name not in _HAZARDS:
            return
        needed_flag, reason = _HAZARDS[name]
        flags = {
            value
            for value in (a.concrete_value() for a in argv[1:])
            if value and value.startswith("-")
        }
        flagchars = set("".join(f[1:] for f in flags if not f.startswith("--")))
        if needed_flag.lstrip("-") in flagchars:
            return
        if self._guarded(state, name, argv):
            return
        state.warn(
            Diagnostic(
                code="idempotence",
                message=(
                    f"{name} without {needed_flag} is not idempotent: {reason}"
                ),
                severity=Severity.INFO,
                pos=node.pos,
            )
        )

    def _guarded(self, state, name: str, argv) -> bool:
        """Is the creation guarded by an established-absence check?

        ``[ -d X ] || mkdir X`` is re-run-safe: on this path the fs model
        has recorded X as ABSENT (an ``[ -e X ]`` guard failed, or a
        prior ``rm`` removed it) or as not-a-DIR (a failed ``[ -d X ]``),
        and a *second* run of the whole script takes the guard's other
        branch instead of re-creating.  The denied-kind case is sound
        for the idempotence question: in the world where X exists as
        some *other* kind, the creation already fails on the first run —
        there is no succeed-then-fail hazard.  Only fires when every
        creation target carries such a fact; UNKNOWN targets keep the
        warning.
        """
        created_kind = NodeKind.DIR if name == "mkdir" else NodeKind.SYMLINK
        targets = [
            a for a in argv[1:]
            if not ((a.concrete_value() or "").startswith("-"))
        ]
        if name == "ln" and len(targets) >= 2:
            targets = targets[-1:]  # only the link name is created
        if not targets:
            return False
        for operand in targets:
            path = parse_sympath(operand)
            if path is None:
                return False
            node_id, existence = state.fs.lookup(path, cwd=state.cwd_node)
            if existence is Existence.ABSENT:
                continue
            if node_id is not None and state.fs.kind_denied(node_id, created_kind):
                continue
            return False
        return True
