"""Specifications for stream-processing utilities.

Their stream behaviour lives in :mod:`repro.rtypes.library` (signatures
are derived per invocation); the specs here contribute argv syntax,
file-reading effects, and platform flag tables.
"""

from __future__ import annotations

from ...rtypes import StreamType
from ..ir import Clause, CommandSpec, Exists, ListsDir, PathKind, ReadsFile, Sel


def _reader_clauses():
    """Commands that read their path operands (or stdin with none)."""
    return [
        Clause(
            pre=(Exists(Sel.EACH, PathKind.FILE),),
            effects=(ReadsFile(Sel.EACH),),
            exit_code=0,
            note="read operand files",
        ),
        Clause(
            pre=(),
            effects=(),
            exit_code=1,
            stderr=True,
            note="unreadable/missing operand fails",
        ),
    ]


def cat_spec() -> CommandSpec:
    return CommandSpec(
        name="cat",
        summary="concatenate and print files",
        options={"n": False, "b": False, "e": False, "t": False, "u": False,
                 "v": False, "A": False},
        clauses=_reader_clauses(),
        platform_flags={"-A": frozenset({"linux"})},
    )


def grep_spec() -> CommandSpec:
    return CommandSpec(
        name="grep",
        summary="search for a pattern",
        options={"e": True, "E": False, "F": False, "v": False, "i": False,
                 "o": False, "c": False, "n": False, "x": False, "q": False,
                 "r": False, "l": False, "H": False, "h": False, "P": False,
                 "w": False, "s": False, "m": True, "f": True},
        long_options={"regexp": True, "color": True, "include": True,
                      "exclude": True, "perl-regexp": False},
        min_operands=0,
        clauses=[
            Clause(
                pre=(Exists(Sel.EACH, PathKind.FILE),),
                effects=(ReadsFile(Sel.EACH),),
                exit_code=0,
                note="a line matched",
            ),
            Clause(pre=(), effects=(), exit_code=1, note="no line matched"),
        ],
        # the pattern operand is not a path; any following operands are
        path_operands_from=1,
        platform_flags={
            "-P": frozenset({"linux"}),
            "--perl-regexp": frozenset({"linux"}),
        },
    )


def sed_spec() -> CommandSpec:
    return CommandSpec(
        name="sed",
        summary="stream editor",
        options={"n": False, "e": True, "f": True, "i": False, "E": False,
                 "r": False, "s": False, "u": False},
        min_operands=0,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
        platform_flags={
            # GNU `sed -i` takes an optional suffix; BSD requires one.
            "-i": frozenset({"linux"}),
            "-r": frozenset({"linux"}),
            "-u": frozenset({"linux"}),
        },
    )


def sort_spec() -> CommandSpec:
    return CommandSpec(
        name="sort",
        summary="sort lines",
        options={"g": False, "n": False, "r": False, "u": False, "k": True,
                 "t": True, "f": False, "h": False, "V": False, "o": True,
                 "c": False, "s": False},
        clauses=_reader_clauses(),
        platform_flags={
            "-g": frozenset({"linux"}),
            "-h": frozenset({"linux"}),
            "-V": frozenset({"linux"}),
        },
    )


def cut_spec() -> CommandSpec:
    return CommandSpec(
        name="cut",
        summary="select fields or characters",
        options={"f": True, "d": True, "c": True, "b": True, "s": False},
        clauses=_reader_clauses(),
    )


def head_spec() -> CommandSpec:
    return CommandSpec(
        name="head",
        summary="first lines of files",
        options={"n": True, "c": True, "q": False, "v": False},
        clauses=_reader_clauses(),
        platform_flags={"-v": frozenset({"linux"}), "-q": frozenset({"linux"})},
    )


def tail_spec() -> CommandSpec:
    return CommandSpec(
        name="tail",
        summary="last lines of files",
        options={"n": True, "c": True, "f": False, "F": False, "q": False},
        clauses=_reader_clauses(),
        platform_flags={"-F": frozenset({"linux", "macos"})},
    )


def wc_spec() -> CommandSpec:
    return CommandSpec(
        name="wc",
        summary="count lines, words, bytes",
        options={"l": False, "w": False, "c": False, "m": False, "L": False},
        clauses=_reader_clauses(),
        stdout=StreamType.of(r"\s*[0-9]+(\s+[0-9]+)*(\s+\S+)?", "counts"),
        platform_flags={"-L": frozenset({"linux"})},
    )


def uniq_spec() -> CommandSpec:
    return CommandSpec(
        name="uniq",
        summary="filter adjacent duplicate lines",
        options={"c": False, "d": False, "u": False, "i": False, "f": True, "s": True},
        clauses=_reader_clauses(),
    )


def tr_spec() -> CommandSpec:
    return CommandSpec(
        name="tr",
        summary="translate characters",
        options={"d": False, "s": False, "c": False, "C": False},
        min_operands=1,
        max_operands=2,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
    )


def xargs_spec() -> CommandSpec:
    return CommandSpec(
        name="xargs",
        summary="construct argument lists and invoke a utility",
        options={"n": True, "I": True, "0": False, "t": False, "p": False,
                 "r": False, "P": True, "d": True},
        min_operands=0,
        clauses=[Clause(pre=(), effects=(), exit_code=0)],
        operands_are_paths=False,
        platform_flags={"-d": frozenset({"linux"}), "-r": frozenset({"linux"})},
    )


def tee_spec() -> CommandSpec:
    return CommandSpec(
        name="tee",
        summary="duplicate standard input to files",
        options={"a": False, "i": False},
        clauses=[
            Clause(
                pre=(),
                effects=(),
                exit_code=0,
                note="writes operands (modelled via redirect machinery)",
            )
        ],
    )
