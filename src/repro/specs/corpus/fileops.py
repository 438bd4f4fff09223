"""Hand-written specifications for file-manipulating utilities.

These mirror what the miner derives (E7 validates the two against each
other); they encode POSIX/XBD behaviour of the classic coreutils.
"""

from __future__ import annotations

from ..ir import (
    Absent,
    Clause,
    CommandSpec,
    CopiesTo,
    Creates,
    Deletes,
    Exists,
    LinksTo,
    ListsDir,
    ParentExists,
    PathKind,
    Pre,
    ReadsFile,
    Sel,
    WritesFile,
)


def rm_spec() -> CommandSpec:
    """The paper's running example (§3)."""
    return CommandSpec(
        name="rm",
        summary="remove directory entries",
        options={"f": False, "r": False, "R": False, "i": False, "v": False, "d": False},
        long_options={"force": False, "recursive": False, "preserve-root": False,
                      "no-preserve-root": False, "verbose": False},
        min_operands=0,  # `rm -f` with no operands exits 0
        clauses=[
            # {(∃ $p) ∧ -r} rm -r $p {(∄ $p) ∧ exit 0}
            Clause(
                pre=(Exists(Sel.EACH, PathKind.ANY),),
                effects=(Deletes(Sel.EACH, recursive=True),),
                exit_code=0,
                requires_flags=frozenset({"-r"}),
                note="recursive removal of extant paths",
            ),
            Clause(
                pre=(Exists(Sel.EACH, PathKind.ANY),),
                effects=(Deletes(Sel.EACH, recursive=True),),
                exit_code=0,
                requires_flags=frozenset({"-R"}),
                note="recursive removal (-R synonym)",
            ),
            # {(∃ $p:file)} rm $p {(∄ $p) ∧ exit 0}
            Clause(
                pre=(Exists(Sel.EACH, PathKind.FILE),),
                effects=(Deletes(Sel.EACH, recursive=False),),
                exit_code=0,
                forbids_flags=frozenset({"-r", "-R"}),
                note="non-recursive removal of files",
            ),
            # {(∄ $p) ∧ -f} rm -f $p {exit 0}
            Clause(
                pre=(Absent(Sel.EACH),),
                effects=(),
                exit_code=0,
                requires_flags=frozenset({"-f"}),
                note="-f silences missing operands",
            ),
            # {(∄ $p)} rm $p {exit 1 ∧ stderr}
            Clause(
                pre=(Absent(Sel.EACH),),
                effects=(),
                exit_code=1,
                forbids_flags=frozenset({"-f"}),
                stderr=True,
                note="missing operand without -f fails",
            ),
            # {(∃ $p:dir)} rm $p {exit 1}  -- directory without -r
            Clause(
                pre=(Exists(Sel.EACH, PathKind.DIR),),
                effects=(),
                exit_code=1,
                forbids_flags=frozenset({"-r", "-R", "-d"}),
                stderr=True,
                note="directory operand without -r fails",
            ),
        ],
        platform_flags={
            "--preserve-root": frozenset({"linux"}),
            "--no-preserve-root": frozenset({"linux"}),
            "-v": frozenset({"linux", "macos"}),
        },
    )


def mkdir_spec() -> CommandSpec:
    return CommandSpec(
        name="mkdir",
        summary="make directories",
        options={"p": False, "m": True, "v": False},
        long_options={"parents": False, "mode": True, "verbose": False},
        min_operands=1,
        clauses=[
            Clause(
                pre=(Absent(Sel.EACH), ParentExists(Sel.EACH)),
                effects=(Creates(Sel.EACH, PathKind.DIR),),
                exit_code=0,
                forbids_flags=frozenset({"-p"}),
                note="create when parent exists and target absent",
            ),
            Clause(
                pre=(Absent(Sel.EACH),),
                effects=(Creates(Sel.EACH, PathKind.DIR, ensure_parents=True),),
                exit_code=0,
                requires_flags=frozenset({"-p"}),
                note="-p creates missing parents",
            ),
            Clause(
                pre=(Exists(Sel.EACH, PathKind.DIR),),
                effects=(),
                exit_code=0,
                requires_flags=frozenset({"-p"}),
                note="-p tolerates an existing directory",
            ),
            Clause(
                pre=(Exists(Sel.EACH, PathKind.FILE),),
                effects=(),
                exit_code=1,
                stderr=True,
                note="a file in the way fails even with -p",
            ),
            Clause(
                pre=(Exists(Sel.EACH, PathKind.ANY),),
                effects=(),
                exit_code=1,
                forbids_flags=frozenset({"-p"}),
                stderr=True,
                note="existing target fails without -p",
            ),
        ],
        platform_flags={"-v": frozenset({"linux"})},
    )


def rmdir_spec() -> CommandSpec:
    return CommandSpec(
        name="rmdir",
        summary="remove empty directories",
        options={"p": False},
        long_options={"parents": False},
        min_operands=1,
        clauses=[
            Clause(
                pre=(Exists(Sel.EACH, PathKind.DIR),),
                effects=(Deletes(Sel.EACH, recursive=False),),
                exit_code=0,
                note="remove empty directory",
            ),
            Clause(
                pre=(Absent(Sel.EACH),),
                effects=(),
                exit_code=1,
                stderr=True,
                note="missing directory fails",
            ),
        ],
    )


def touch_spec() -> CommandSpec:
    return CommandSpec(
        name="touch",
        summary="change file timestamps / create empty files",
        options={"a": False, "m": False, "c": False, "r": True, "t": True},
        min_operands=1,
        clauses=[
            Clause(
                pre=(Absent(Sel.EACH), ParentExists(Sel.EACH)),
                effects=(Creates(Sel.EACH, PathKind.FILE),),
                exit_code=0,
                forbids_flags=frozenset({"-c"}),
                note="create missing files",
            ),
            Clause(
                pre=(Exists(Sel.EACH, PathKind.ANY),),
                effects=(WritesFile(Sel.EACH),),
                exit_code=0,
                note="update timestamps of existing paths",
            ),
            Clause(
                pre=(Absent(Sel.EACH),),
                effects=(),
                exit_code=0,
                requires_flags=frozenset({"-c"}),
                note="-c: do not create",
            ),
        ],
    )


def cp_spec() -> CommandSpec:
    return CommandSpec(
        name="cp",
        summary="copy files",
        options={"r": False, "R": False, "f": False, "p": False, "i": False,
                 "a": False, "v": False, "n": False},
        long_options={"recursive": False, "force": False, "archive": False,
                      "reflink": True, "verbose": False, "no-clobber": False},
        min_operands=2,
        clauses=[
            Clause(
                pre=(Exists(Sel.ALL_BUT_LAST, PathKind.ANY),),
                effects=(CopiesTo(move=False),),
                exit_code=0,
                note="copy extant sources to destination",
            ),
            Clause(
                pre=(Absent(Sel.ALL_BUT_LAST),),
                effects=(),
                exit_code=1,
                stderr=True,
                note="missing source fails",
            ),
        ],
        platform_flags={
            "--reflink": frozenset({"linux"}),
            "-a": frozenset({"linux", "macos"}),
        },
    )


def mv_spec() -> CommandSpec:
    return CommandSpec(
        name="mv",
        summary="move (rename) files",
        options={"f": False, "i": False, "n": False, "v": False},
        min_operands=2,
        clauses=[
            Clause(
                pre=(Exists(Sel.ALL_BUT_LAST, PathKind.ANY),),
                effects=(CopiesTo(move=True),),
                exit_code=0,
                note="move extant sources to destination",
            ),
            Clause(
                pre=(Absent(Sel.ALL_BUT_LAST),),
                effects=(),
                exit_code=1,
                stderr=True,
                note="missing source fails",
            ),
        ],
        platform_flags={"-v": frozenset({"linux"})},
    )


def ln_spec() -> CommandSpec:
    return CommandSpec(
        name="ln",
        summary="link files",
        options={"s": False, "f": False, "n": False, "v": False},
        min_operands=1,
        max_operands=2,
        clauses=[
            # hard links require an extant source; -s does not
            Clause(
                pre=(Exists(Sel.FIRST, PathKind.ANY), Absent(Sel.LAST)),
                effects=(Creates(Sel.LAST, PathKind.FILE),),
                exit_code=0,
                forbids_flags=frozenset({"-s"}),
                note="hard link to an extant source",
            ),
            Clause(
                pre=(Absent(Sel.FIRST),),
                effects=(),
                exit_code=1,
                forbids_flags=frozenset({"-s"}),
                stderr=True,
                note="hard link to a missing source fails",
            ),
            Clause(
                pre=(Absent(Sel.LAST),),
                effects=(LinksTo(),),
                exit_code=0,
                requires_flags=frozenset({"-s"}),
                note="symlink creation (source may dangle)",
            ),
            Clause(
                pre=(Exists(Sel.LAST, PathKind.ANY),),
                effects=(Deletes(Sel.LAST), LinksTo()),
                exit_code=0,
                requires_flags=frozenset({"-f", "-s"}),
                note="-sf replaces an existing destination",
            ),
            Clause(
                pre=(Exists(Sel.FIRST, PathKind.ANY), Exists(Sel.LAST, PathKind.ANY)),
                effects=(Deletes(Sel.LAST), Creates(Sel.LAST, PathKind.FILE)),
                exit_code=0,
                requires_flags=frozenset({"-f"}),
                forbids_flags=frozenset({"-s"}),
                note="-f replaces an existing destination (hard)",
            ),
            Clause(
                pre=(Exists(Sel.LAST, PathKind.ANY),),
                effects=(),
                exit_code=1,
                forbids_flags=frozenset({"-f"}),
                stderr=True,
                note="existing destination without -f fails",
            ),
        ],
    )


def chmod_spec() -> CommandSpec:
    return CommandSpec(
        name="chmod",
        summary="change file modes",
        options={"R": False, "v": False, "f": False},
        min_operands=2,
        clauses=[
            Clause(
                pre=(Exists(Sel.LAST, PathKind.ANY),),
                effects=(WritesFile(Sel.LAST),),
                exit_code=0,
                note="mode change on extant paths",
            ),
            Clause(
                pre=(Absent(Sel.LAST),),
                effects=(),
                exit_code=1,
                stderr=True,
                note="missing path fails",
            ),
        ],
        operands_are_paths=False,  # first operand is the mode; handled ad hoc
    )
