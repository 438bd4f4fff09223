"""Symbolic semantics of the ``${var%pat}`` expansion-operator family.

Concrete values get exact POSIX semantics; symbolic values produce *case
splits*: e.g. ``${0%/*}`` on a path-constrained ``$0`` yields one case
where the suffix matched (result = a quotient-constrained fresh
variable, and ``$0`` is refined to contain a ``/``) and one where it did
not (result unchanged, ``$0`` refined to be slash-free).  This is exactly
the two-outcome analysis the paper walks through for the Steam bug.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..records import Record
from ..rlang import Regex
from .store import ConstraintStore
from .value import SymString


class ExpansionCase(Record):
    """One outcome of a symbolic expansion.

    ``refinements`` narrow existing variables in the forked path where
    this case holds; ``note`` documents the case for diagnostics.
    """

    __slots__ = ("result", "refinements", "note")

    def __init__(
        self,
        result: SymString,
        refinements: Optional[List[Tuple[int, Regex]]] = None,
        note: str = "",
    ):
        self.result = result
        self.refinements = [] if refinements is None else refinements
        self.note = note


def strip_suffix(
    value: SymString,
    pattern: Regex,
    longest: bool,
    store: ConstraintStore,
) -> List[ExpansionCase]:
    """``${v%pat}`` / ``${v%%pat}``."""
    concrete = value.concrete_value()
    if concrete is not None:
        return [ExpansionCase(SymString.lit(_concrete_suffix(concrete, pattern, longest)))]

    suffixed = Regex.any_string() + pattern  # Σ*·pat : strings ending in a match
    vid = value.single_var()
    if vid is not None:
        constraint = store.constraint(vid)
        cases = []
        no_match = constraint - suffixed
        if not no_match.is_empty():
            cases.append(
                ExpansionCase(
                    value,
                    refinements=[(vid, no_match)],
                    note="suffix pattern did not match",
                )
            )
        matched = constraint & suffixed
        if not matched.is_empty():
            quotient = matched.strip_suffix(pattern)
            result_vid = store.fresh(
                quotient,
                label=f"{store.label(vid)}%",
                provenance=("strip_suffix", vid),
            )
            cases.append(
                ExpansionCase(
                    SymString.var(result_vid),
                    refinements=[(vid, matched)],
                    note="suffix pattern matched",
                )
            )
        return cases

    # Mixed literal/variable value: a single over-approximating case.
    lang = value.to_regex(store)
    approx = lang.strip_suffix(pattern) | (lang - suffixed)
    result_vid = store.fresh(approx, label="strip%")
    return [ExpansionCase(SymString.var(result_vid), note="over-approximated strip")]


def strip_prefix(
    value: SymString,
    pattern: Regex,
    longest: bool,
    store: ConstraintStore,
) -> List[ExpansionCase]:
    """``${v#pat}`` / ``${v##pat}``."""
    concrete = value.concrete_value()
    if concrete is not None:
        return [ExpansionCase(SymString.lit(_concrete_prefix(concrete, pattern, longest)))]

    prefixed = pattern + Regex.any_string()
    vid = value.single_var()
    if vid is not None:
        constraint = store.constraint(vid)
        cases = []
        no_match = constraint - prefixed
        if not no_match.is_empty():
            cases.append(
                ExpansionCase(
                    value,
                    refinements=[(vid, no_match)],
                    note="prefix pattern did not match",
                )
            )
        matched = constraint & prefixed
        if not matched.is_empty():
            quotient = matched.strip_prefix(pattern)
            result_vid = store.fresh(
                quotient,
                label=f"{store.label(vid)}#",
                provenance=("strip_prefix", vid),
            )
            cases.append(
                ExpansionCase(
                    SymString.var(result_vid),
                    refinements=[(vid, matched)],
                    note="prefix pattern matched",
                )
            )
        return cases

    lang = value.to_regex(store)
    approx = lang.strip_prefix(pattern) | (lang - prefixed)
    result_vid = store.fresh(approx, label="strip#")
    return [ExpansionCase(SymString.var(result_vid), note="over-approximated strip")]


def _concrete_suffix(text: str, pattern: Regex, longest: bool) -> str:
    """Exact POSIX suffix-strip on a concrete string."""
    if longest:
        indices = range(0, len(text) + 1)  # earliest start = longest suffix
    else:
        indices = range(len(text), -1, -1)  # latest start = smallest suffix
    for idx in indices:
        if pattern.matches(text[idx:]):
            return text[:idx]
    return text


def _concrete_prefix(text: str, pattern: Regex, longest: bool) -> str:
    """Exact POSIX prefix-strip on a concrete string."""
    if longest:
        indices = range(len(text), -1, -1)  # longest prefix first
    else:
        indices = range(0, len(text) + 1)
    for idx in indices:
        if pattern.matches(text[:idx]):
            return text[idx:]
    return text
