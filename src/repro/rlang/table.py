"""Build each language once: a per-run table and a per-process tier.

One symbolic-execution run rebuilds the same automata many times: every
forked state compiles the same patterns again, a ``case`` inside a loop
intersects structurally equal constraints with the same arm languages
on every iteration, and every ``${v%pat}`` glues ``Σ*`` to the same
pattern.  While a :class:`RunTable` is installed (:func:`run_table`,
entered by ``Engine.run``), two kinds of construction are built once
and shared:

- leaves: ``Regex.compile(pattern)`` and ``Regex.literal(text)``, keyed
  by the pattern or text;
- constructions from operands: ``intersection``, ``union``,
  ``difference``, ``concat_dfa``, ``star`` and both quotients, keyed by
  the operation and the structure of each operand.

The table is thread-local and dropped when the outermost run leaves its
scope, so nothing built from script text outlives the run.  Without a
table every such call builds, as before.  The analyzer's own constant
languages are written in its source, never in a script, so
:func:`shared_constant` keeps them for the whole process (the tier is
bounded by the source); threads share their DFAs, which each run's
table tags with its own key.

Sharing cannot change a result.  No DFA is mutated after construction,
and a construction's structure depends only on its operands'
structures.  A construction trips the DFA-state cap exactly when its
finished automaton is over the cap (the frontier only grows), so a
reused DFA is checked against the cap active at reuse, as a rebuilt one
would be, in the phase that would have tripped.  A construction that
raises stores nothing.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..budget import enforce_dfa_cap
from .dfa import DFA

_tls = threading.local()

#: source constant -> its DFA, for the life of the process
_constants: Dict[str, DFA] = {}


class RunTable:
    """The leaves and constructions built so far in one run."""

    __slots__ = ("token", "keys", "leaves", "products")

    def __init__(self) -> None:
        #: tags a DFA with its key in this table; compared by identity, so
        #: a tag left by another table (or another process) never matches
        self.token = object()
        #: DFA structure -> small int key
        self.keys: Dict[tuple, int] = {}
        self.leaves: Dict[Tuple[str, str], DFA] = {}
        #: (operation, operand key, ...) -> the construction's DFA
        self.products: Dict[tuple, DFA] = {}

    def key(self, dfa: DFA) -> int:
        """A small int naming ``dfa``'s structure, computed once per DFA."""
        tag = dfa.table_tag
        if tag is not None and tag[0] is self.token:
            return tag[1]
        structure = (
            tuple(atom.intervals for atom in dfa.atoms),
            tuple(map(tuple, dfa.delta)),
            frozenset(dfa.accepting),
            dfa.start,
        )
        key = self.keys.setdefault(structure, len(self.keys))
        dfa.table_tag = (self.token, key)
        return key

    def leaf(self, kind: str, text: str, build: Callable[[], DFA]) -> DFA:
        dfa = self.leaves.get((kind, text))
        if dfa is None:
            dfa = self.leaves[(kind, text)] = build()
        else:
            _recheck(dfa, "rlang.determinise")
        return dfa

    def product(self, op: str, operands: Sequence[DFA], build, phase) -> DFA:
        entry = (op, *map(self.key, operands))
        dfa = self.products.get(entry)
        if dfa is None:
            dfa = self.products[entry] = build()
        elif phase is not None:
            _recheck(dfa, phase)
        return dfa


def _recheck(dfa: DFA, phase: str) -> None:
    """Apply the checks a rebuild of ``dfa`` would have made."""
    enforce_dfa_cap(dfa.n_states, phase)


def active_table() -> Optional[RunTable]:
    """The table installed on this thread, or None."""
    return getattr(_tls, "table", None)


def shared_leaf(kind: str, text: str, build: Callable[[], DFA]) -> DFA:
    """``build()``, shared per ``(kind, text)`` while a table is installed."""
    table = getattr(_tls, "table", None)
    if table is None:
        return build()
    return table.leaf(kind, text, build)


def shared_product(
    op: str,
    operands: Sequence[DFA],
    build: Callable[[], DFA],
    phase: Optional[str] = "rlang.product",
) -> DFA:
    """``build()``, shared per ``(op, structure of each operand)`` while a
    table is installed.  ``phase`` names where a rebuild would check the
    DFA-state cap (None: a rebuild checks nothing)."""
    table = getattr(_tls, "table", None)
    if table is None:
        return build()
    return table.product(op, operands, build, phase)


def shared_constant(pattern: str, build: Callable[[], DFA]) -> DFA:
    """``build()``, shared per ``pattern`` for the life of the process.

    Only for patterns written in the analyzer's source: the tier has no
    bound but the source's."""
    dfa = _constants.get(pattern)
    if dfa is None:
        # two threads may both build; the first stored is kept
        return _constants.setdefault(pattern, build())
    _recheck(dfa, "rlang.determinise")
    return dfa


@contextmanager
def run_table() -> Iterator[RunTable]:
    """Install a table for the current thread for the scope's duration.

    A nested scope reuses the table already installed; the outermost
    scope drops it on exit, also when the run raises."""
    table = getattr(_tls, "table", None)
    if table is not None:
        yield table
        return
    table = _tls.table = RunTable()
    try:
        yield table
    finally:
        _tls.table = None
