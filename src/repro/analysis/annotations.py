"""Ergonomic annotations (paper §4).

Constraints join the shell ecosystem as specialised inline comments, so
scripts stay fully compatible with existing interpreters::

    # @var STEAMROOT : path          -- named type from the library
    # @var VERSION : [0-9.]+         -- inline regular type
    # @type frobnicate :: .* -> [0-9]+
    # @args 2                        -- the script takes two arguments
    # @platforms linux macos         -- deployment targets
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..records import Record
from ..rlang import Regex, RegexSyntaxError
from ..rtypes import Signature, named_type, simple


class AnnotationError(ValueError):
    """A malformed annotation comment."""


class AnnotationSet(Record):
    __slots__ = ("variables", "signatures", "n_args", "platforms")

    def __init__(
        self,
        variables: Optional[Dict[str, Regex]] = None,
        signatures: Optional[Dict[str, Signature]] = None,
        n_args: Optional[int] = None,
        platforms: Optional[List[str]] = None,
    ):
        self.variables = {} if variables is None else variables
        self.signatures = {} if signatures is None else signatures
        self.n_args = n_args
        self.platforms = [] if platforms is None else platforms

    def is_empty(self) -> bool:
        return not (
            self.variables or self.signatures or self.platforms
        ) and self.n_args is None


_VAR = re.compile(r"#\s*@var\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.+?)\s*$")
_TYPE = re.compile(r"#\s*@type\s+(.+?)\s*::\s*(.+?)\s*->\s*(.+?)\s*$")
_ARGS = re.compile(r"#\s*@args\s+([0-9]+)\s*$")
_PLATFORMS = re.compile(r"#\s*@platforms\s+(.+?)\s*$")


def annotation_lines(source: str) -> List[str]:
    """The directive lines of ``source``, stripped: a rewrite of the
    script that keeps them is analysed under the same annotations."""
    lines = map(str.strip, source.splitlines())
    return [line for line in lines if any(p.match(line) for p in (_VAR, _TYPE, _ARGS, _PLATFORMS))]


def load_annotation_file(path: str) -> AnnotationSet:
    """Annotations from an external file (§4: constraints may live in
    "external files", enabling community-sourced repositories à la
    TypeScript's DefinitelyTyped).  The file uses the same directive
    syntax as inline comments; bare (uncommented) directives are also
    accepted."""
    with open(path, "r", encoding="utf-8") as handle:
        body = handle.read()
    normalised = "\n".join(
        line if line.lstrip().startswith("#") or not line.strip() else "# " + line.strip()
        for line in body.splitlines()
    )
    return parse_annotations(normalised)


def merge_annotations(*sets: AnnotationSet) -> AnnotationSet:
    """Combine annotation sets; later sets win on conflicts (a script's
    inline annotations override a shared repository's)."""
    result = AnnotationSet()
    for annotations in sets:
        result.variables.update(annotations.variables)
        result.signatures.update(annotations.signatures)
        if annotations.n_args is not None:
            result.n_args = annotations.n_args
        if annotations.platforms:
            result.platforms = list(annotations.platforms)
    return result


def parse_annotations(source: str) -> AnnotationSet:
    """Extract annotations from a script's comments."""
    result = AnnotationSet()
    for lineno, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped.startswith("#"):
            continue
        match = _VAR.match(stripped)
        if match:
            name, type_text = match.groups()
            result.variables[name] = _resolve_type(type_text, lineno)
            continue
        match = _TYPE.match(stripped)
        if match:
            command, input_text, output_text = match.groups()
            try:
                result.signatures[command.strip()] = simple(
                    _pattern_of(input_text),
                    _pattern_of(output_text),
                    label=f"{command.strip()} (annotated)",
                )
            except RegexSyntaxError as exc:
                raise AnnotationError(f"line {lineno}: bad @type: {exc}") from exc
            continue
        match = _ARGS.match(stripped)
        if match:
            result.n_args = int(match.group(1))
            continue
        match = _PLATFORMS.match(stripped)
        if match:
            result.platforms = match.group(1).split()
            continue
        if stripped.startswith("# @") or stripped.startswith("#@"):
            raise AnnotationError(f"line {lineno}: unrecognised annotation {stripped!r}")
    return result


def _resolve_type(text: str, lineno: int) -> Regex:
    named = named_type(text)
    if named is not None:
        return named.line
    try:
        return Regex.compile(_pattern_of(text))
    except RegexSyntaxError as exc:
        raise AnnotationError(f"line {lineno}: bad @var type: {exc}") from exc


def _pattern_of(text: str) -> str:
    text = text.strip()
    named = named_type(text)
    if named is not None:
        # reuse the library pattern so named types work in @type, too
        from ..rtypes.library import _NAMED_PATTERNS

        return _NAMED_PATTERNS[text]
    return text
