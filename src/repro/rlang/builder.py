"""User-facing :class:`Regex`: a regular language with cached automata.

This is the workhorse value used throughout the analysis: variable
content constraints (paper §3 "reasoning about state"), stream line types
(§3 "regular types"), and checker queries are all :class:`Regex` values.

Operators::

    r1 & r2    intersection          r1 | r2   union
    r1 - r2    difference            ~r1       complement
    r1 <= r2   containment           r1 == r2  language equivalence
    r1 + r2    concatenation
"""

from __future__ import annotations

from typing import List, Optional

from ..obs import get_recorder
from . import ops
from .dfa import DFA, determinise, minimise
from .nfa import build_nfa
from .syntax import Node, literal, parse
from .table import shared_constant, shared_leaf


class Regex:
    """An immutable regular language over Unicode strings."""

    __slots__ = ("_dfa", "pattern", "_min")

    def __init__(self, dfa: DFA, pattern: Optional[str] = None):
        self._dfa = dfa
        self.pattern = pattern
        self._min: Optional[DFA] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def compile(cls, pattern: str) -> "Regex":
        """Compile a regex pattern (whole-string semantics).

        Within a run the DFA is built once per pattern and shared; each
        call still returns a fresh :class:`Regex`."""
        return cls(
            shared_leaf(
                "compile", pattern, lambda: determinise(build_nfa(parse(pattern)))
            ),
            pattern,
        )

    @classmethod
    def constant(cls, pattern: str) -> "Regex":
        """Compile a pattern written in the analyzer's source, never in a
        script: the DFA is built once per process and shared; each call
        still returns a fresh :class:`Regex`."""
        return cls(
            shared_constant(pattern, lambda: determinise(build_nfa(parse(pattern)))),
            pattern,
        )

    @classmethod
    def from_ast(
        cls, node: Node, pattern: Optional[str] = None, key: Optional[str] = None
    ) -> "Regex":
        """The language of ``node``.  A ``key`` that names the tree
        (equal keys, equal trees) shares its DFA like :meth:`compile`."""
        if key is None:
            return cls(determinise(build_nfa(node)), pattern)
        return cls(shared_leaf("ast", key, lambda: determinise(build_nfa(node))), pattern)

    @classmethod
    def literal(cls, text: str) -> "Regex":
        """Language containing exactly ``text`` (shared like :meth:`compile`)."""
        return cls(
            shared_leaf("literal", text, lambda: determinise(build_nfa(literal(text)))),
            _escape(text),
        )

    @classmethod
    def any_string(cls) -> "Regex":
        return cls.constant("(.|\\n)*")

    @classmethod
    def nothing(cls) -> "Regex":
        return cls.constant("[^\\x00-\\x10]") & cls.constant("[\\x00-\\x10]")

    # -- core automaton access ---------------------------------------------

    @property
    def dfa(self) -> DFA:
        return self._dfa

    @property
    def min_dfa(self) -> DFA:
        recorder = get_recorder()
        if self._min is None:
            if recorder.enabled:
                recorder.count("rlang.min_cache_misses")
            self._min = minimise(self._dfa)
        elif recorder.enabled:
            recorder.count("rlang.min_cache_hits")
        return self._min

    # -- queries -----------------------------------------------------------

    def matches(self, text: str) -> bool:
        return self._dfa.accepts(text)

    def is_empty(self) -> bool:
        return self._dfa.is_empty()

    def is_finite(self) -> bool:
        return self._dfa.is_finite()

    def example(self) -> Optional[str]:
        """A shortest member string, or None if the language is empty."""
        return self._dfa.shortest_accepted()

    def examples(self, limit: int = 8, max_len: int = 32) -> List[str]:
        return self._dfa.enumerate(limit=limit, max_len=max_len)

    def matches_empty(self) -> bool:
        return self.matches("")

    # -- algebra -----------------------------------------------------------

    def __and__(self, other: "Regex") -> "Regex":
        return Regex(
            ops.intersection(self._dfa, other._dfa),
            _combine(self.pattern, "&", other.pattern),
        )

    def __or__(self, other: "Regex") -> "Regex":
        return Regex(
            ops.union(self._dfa, other._dfa),
            _combine(self.pattern, "|", other.pattern),
        )

    def __sub__(self, other: "Regex") -> "Regex":
        return Regex(
            ops.difference(self._dfa, other._dfa),
            _combine(self.pattern, "-", other.pattern),
        )

    def __invert__(self) -> "Regex":
        pat = f"~({self.pattern})" if self.pattern else None
        return Regex(ops.complement(self._dfa), pat)

    def __add__(self, other: "Regex") -> "Regex":
        pat = None
        if self.pattern is not None and other.pattern is not None:
            pat = f"({self.pattern})({other.pattern})"
        return Regex(ops.concat_dfa(self._dfa, other._dfa), pat)

    def __le__(self, other: "Regex") -> bool:
        """Containment: every string of self is a string of other."""
        return ops.is_subset(self._dfa, other._dfa)

    def __ge__(self, other: "Regex") -> bool:
        return ops.is_subset(other._dfa, self._dfa)

    def __lt__(self, other: "Regex") -> bool:
        return self <= other and not other <= self

    def disjoint(self, other: "Regex") -> bool:
        return ops.is_disjoint(self._dfa, other._dfa)

    def map_chars(self, translate) -> "Regex":
        """Homomorphic image under a per-character map (see ops.map_chars)."""
        return Regex(ops.map_chars(self._dfa, translate))

    def star(self) -> "Regex":
        """Kleene star of this language."""
        pat = f"({self.pattern})*" if self.pattern else None
        return Regex(ops.star(self._dfa), pat)

    def strip_suffix(self, suffix: "Regex") -> "Regex":
        """Right quotient: possible values after removing a suffix in
        ``suffix`` (the symbolic reading of ``${var%pattern}``)."""
        return Regex(ops.right_quotient(self._dfa, suffix._dfa))

    def strip_prefix(self, prefix: "Regex") -> "Regex":
        """Left quotient: possible values after removing a prefix in
        ``prefix`` (the symbolic reading of ``${var#pattern}``)."""
        return Regex(ops.left_quotient(prefix._dfa, self._dfa))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Regex):
            return NotImplemented
        return ops.equivalent(self._dfa, other._dfa)

    def __hash__(self) -> int:
        # Equivalence-respecting hashes would require canonicalisation; we
        # hash on the minimal DFA's coarse shape.
        mdfa = self.min_dfa
        return hash((mdfa.n_states, len(mdfa.accepting)))

    def __repr__(self) -> str:
        if self.pattern is not None:
            return f"Regex({self.pattern!r})"
        return f"Regex(<{self._dfa.n_states} states>)"


def _combine(a: Optional[str], op: str, b: Optional[str]) -> Optional[str]:
    if a is None or b is None:
        return None
    return f"({a}){op}({b})"


def _escape(text: str) -> str:
    special = set("\\^$.[]|()*+?{}")
    return "".join("\\" + c if c in special else c for c in text)
