"""Specifications for system-information and miscellaneous utilities."""

from __future__ import annotations

from ...rtypes import StreamType
from ..ir import Clause, CommandSpec, Exists, ListsDir, PathKind, ReadsFile, Sel


def named_type(name: str) -> StreamType:
    """A named stream type of the library, which loads only when a spec
    that names one is built."""
    from ...rtypes.library import named_type

    return named_type(name)


def lsb_release_spec() -> CommandSpec:
    return CommandSpec(
        name="lsb_release",
        summary="print Linux Standard Base release information",
        options={"a": False, "d": False, "r": False, "c": False, "i": False,
                 "s": False},
        max_operands=0,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        stdout=named_type("lsb_release"),
        platform_flags={flag: frozenset({"linux"})
                        for flag in ["-a", "-d", "-r", "-c", "-i", "-s"]},
        operands_are_paths=False,
    )


def uname_spec() -> CommandSpec:
    return CommandSpec(
        name="uname",
        summary="print system name",
        options={"a": False, "s": False, "r": False, "m": False, "n": False,
                 "o": False, "p": False},
        max_operands=0,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        stdout=StreamType.of(r"\S+( .*)?", "uname"),
        platform_flags={"-o": frozenset({"linux"})},
        operands_are_paths=False,
    )


def echo_spec() -> CommandSpec:
    return CommandSpec(
        name="echo",
        summary="write arguments to standard output",
        options={"n": False, "e": False, "E": False},
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
    )


def printf_spec() -> CommandSpec:
    return CommandSpec(
        name="printf",
        summary="formatted output",
        options={},
        min_operands=1,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
    )


def true_spec() -> CommandSpec:
    return CommandSpec(
        name="true", summary="return success",
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
    )


def false_spec() -> CommandSpec:
    return CommandSpec(
        name="false", summary="return failure",
        clauses=[Clause(pre=(), effects=(), exit_code=1)],
        operands_are_paths=False,
    )


def sleep_spec() -> CommandSpec:
    return CommandSpec(
        name="sleep", summary="suspend execution",
        min_operands=1, max_operands=1,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
    )


def ls_spec() -> CommandSpec:
    return CommandSpec(
        name="ls",
        summary="list directory contents",
        options={"l": False, "a": False, "A": False, "1": False, "t": False,
                 "r": False, "h": False, "d": False, "R": False, "G": False,
                 "F": False},
        long_options={"color": True},
        clauses=[
            Clause(
                pre=(Exists(Sel.EACH, PathKind.ANY),),
                effects=(ListsDir(Sel.EACH),),
                exit_code=0,
                note="list extant operands",
            ),
            Clause(
                pre=(),
                effects=(),
                exit_code=1,
                stderr=True,
                note="missing operand fails",
            ),
        ],
        stdout=StreamType.of(r"[^\n]*", "listing"),
        platform_flags={
            "--color": frozenset({"linux"}),
            # GNU ls supports -G too (--no-group), so it is portable;
            # only --color is GNU-specific.
            "-G": frozenset({"linux", "macos"}),
        },
    )


def realpath_spec() -> CommandSpec:
    return CommandSpec(
        name="realpath",
        summary="print the resolved absolute path",
        options={"m": False, "e": False, "q": False, "s": False},
        min_operands=1,
        clauses=[
            Clause(
                pre=(Exists(Sel.EACH, PathKind.ANY),),
                effects=(),
                exit_code=0,
                note="resolve extant paths",
            ),
            Clause(
                pre=(),
                effects=(),
                exit_code=1,
                stderr=True,
                note="unresolvable path fails",
            ),
        ],
        stdout=named_type("abspath"),
        platform_flags={flag: frozenset({"linux"})
                        for flag in ["-m", "-e", "-q", "-s"]},
    )


def readlink_spec() -> CommandSpec:
    return CommandSpec(
        name="readlink",
        summary="print symbolic link target",
        options={"f": False, "e": False, "m": False, "n": False},
        min_operands=1,
        clauses=[
            Clause(pre=(Exists(Sel.EACH, PathKind.ANY),), effects=(), exit_code=0),
            Clause(pre=(), effects=(), exit_code=1, stderr=True),
        ],
        stdout=named_type("path"),
        platform_flags={
            "-f": frozenset({"linux"}),
            "-e": frozenset({"linux"}),
            "-m": frozenset({"linux"}),
        },
    )


def dirname_spec() -> CommandSpec:
    return CommandSpec(
        name="dirname", summary="path prefix",
        min_operands=1, max_operands=1,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        stdout=named_type("path"),
        operands_are_paths=False,  # purely textual
    )


def basename_spec() -> CommandSpec:
    return CommandSpec(
        name="basename", summary="path suffix",
        min_operands=1, max_operands=2,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        stdout=StreamType.of(r"[^/\n]+", "basename"),
        operands_are_paths=False,
    )


def pwd_spec() -> CommandSpec:
    return CommandSpec(
        name="pwd", summary="print working directory",
        max_operands=0,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        stdout=named_type("abspath"),
        operands_are_paths=False,
    )


def date_spec() -> CommandSpec:
    return CommandSpec(
        name="date",
        summary="print or set the date",
        options={"u": False, "d": True, "v": True, "r": True, "j": False,
                 "R": False, "I": False},
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        stdout=StreamType.of(r".+", "date"),
        platform_flags={
            "-d": frozenset({"linux"}),
            "-I": frozenset({"linux"}),
            "-v": frozenset({"macos"}),
            "-j": frozenset({"macos"}),
            "-r": frozenset({"linux", "macos"}),
        },
        operands_are_paths=False,
    )


def curl_spec() -> CommandSpec:
    return CommandSpec(
        name="curl",
        summary="transfer a URL",
        options={"s": False, "S": False, "L": False, "o": True, "O": False,
                 "f": False, "k": False, "H": True, "X": True, "d": True},
        long_options={"silent": False, "location": False, "output": True,
                      "fail": False, "insecure": False},
        min_operands=0,
        clauses=[
            Clause(pre=(), effects=(), exit_code=0, note="transfer succeeded"),
            Clause(pre=(), effects=(), exit_code=22, stderr=True,
                   note="server error with -f"),
        ],
        stdout=StreamType.any(),
        operands_are_paths=False,
    )


def wget_spec() -> CommandSpec:
    return CommandSpec(
        name="wget",
        summary="network downloader",
        options={"q": False, "O": True, "c": False, "P": True},
        min_operands=1,
        clauses=[
            Clause(pre=(), effects=(), exit_code=0),
            Clause(pre=(), effects=(), exit_code=8, stderr=True),
        ],
        operands_are_paths=False,
        platform_flags={"-P": frozenset({"linux"})},
    )


def sh_spec() -> CommandSpec:
    return CommandSpec(
        name="sh",
        summary="shell interpreter",
        options={"c": True, "e": False, "u": False, "x": False, "n": False},
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
    )


def find_spec() -> CommandSpec:
    return CommandSpec(
        name="find",
        summary="walk a file hierarchy",
        options={},
        clauses=[
            Clause(
                pre=(Exists(Sel.FIRST, PathKind.ANY),),
                effects=(ListsDir(Sel.FIRST),),
                exit_code=0,
            ),
            Clause(pre=(), effects=(), exit_code=1, stderr=True),
        ],
        stdout=named_type("path"),
    )


def mktemp_spec() -> CommandSpec:
    """mktemp prints the path it created — crucially, a path rooted under
    /tmp, so deleting ``$(mktemp)`` is *not* a dangerous deletion (the
    output language cannot reach ``/`` or other top-level paths)."""
    return CommandSpec(
        name="mktemp",
        summary="create a unique temporary file or directory",
        options={"d": False, "u": False, "q": False, "p": True, "t": False},
        long_options={"directory": False, "dry-run": False, "tmpdir": True,
                      "suffix": True},
        max_operands=1,  # an optional template
        clauses=[
            Clause(pre=(), effects=(), exit_code=0, note="created"),
            Clause(pre=(), effects=(), exit_code=1, stderr=True,
                   note="creation failed"),
        ],
        # The basename always contains at least one non-dot character
        # (mktemp templates end in XXXXXX replaced by random alphanumerics),
        # so the language excludes "/tmp/.", "/tmp/.." and bare "/tmp/" —
        # none of which mktemp can print, and all of which would wrongly
        # intersect the dangerous-deletion language.
        stdout=StreamType.of(
            r"/tmp/[A-Za-z0-9._-]*[A-Za-z0-9_-][A-Za-z0-9._-]*", "tmppath"
        ),
        operands_are_paths=False,  # the template is a pattern, not a path
    )


def trap_spec() -> CommandSpec:
    """``trap`` registers a handler; registration itself has no
    file-system effects (the handler body is out of scope here)."""
    return CommandSpec(
        name="trap",
        summary="register a signal/exit handler",
        options={"l": False, "p": False},
        clauses=[Clause(pre=(), effects=(), exit_code=0, note="registered")],
        operands_are_paths=False,
    )


def test_spec() -> CommandSpec:
    """External `test`; the `[`/`test` builtin is handled by the engine,
    this spec exists for completeness and for the miner benchmark."""
    return CommandSpec(
        name="test",
        summary="evaluate expression",
        clauses=[
            Clause(pre=(), effects=(), exit_code=0, note="expression true"),
            Clause(pre=(), effects=(), exit_code=1, note="expression false"),
        ],
        operands_are_paths=False,
    )
