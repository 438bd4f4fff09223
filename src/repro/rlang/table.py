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

The table is installed per thread and, by default, dropped when the
outermost run leaves its scope, so nothing built from script text
outlives the run.  A caller may install a table of its own instead
(``run_table(table)``): the analysis daemon keeps one for its lifetime,
shared by its handler threads, and replaces it once it holds more than
its bound of DFA states (:attr:`RunTable.states`, which counts every
DFA the table keeps alive: its entries and the structures it keys).
Keys come from one counter and every store is a single
``dict.setdefault``, so threads sharing a table never give two
structures one key.  A forked child starts with no table installed.
Without a table every such call builds, as before.  The analyzer's own
constant languages are written in its source, never in a script, so
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

import itertools
import os
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple

from ..budget import enforce_dfa_cap
from .dfa import DFA

_tls = threading.local()
# a pool worker forked while a table is installed must not inherit it:
# the child would reuse its copy for every later run
os.register_at_fork(after_in_child=lambda: setattr(_tls, "table", None))

#: source constant -> its DFA, for the life of the process
_constants: Dict[str, DFA] = {}


class RunTable:
    """The leaves and constructions built so far in one run (or, for the
    daemon, in the requests since its table was last replaced)."""

    __slots__ = ("token", "keys", "ids", "leaves", "products", "states", "_lock")

    def __init__(self) -> None:
        #: tags a DFA with its key in this table; compared by identity, so
        #: a tag left by another table (or another process) never matches
        self.token = object()
        #: DFA structure -> small int key
        self.keys: Dict[tuple, int] = {}
        #: the keys to hand out: ``next`` on a count is atomic, so threads
        #: sharing the table never draw one key for two structures (a key
        #: drawn for a structure already keyed goes unused)
        self.ids = itertools.count()
        self.leaves: Dict[Tuple[str, str], DFA] = {}
        #: (operation, operand key, ...) -> the construction's DFA
        self.products: Dict[tuple, DFA] = {}
        #: DFA states held by ``leaves`` and ``products``, and by the
        #: structures in ``keys`` (each keeps its DFA's rows)
        self.states = 0
        self._lock = threading.Lock()

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
        drawn = next(self.ids)
        key = self.keys.setdefault(structure, drawn)
        if key == drawn:
            with self._lock:
                self.states += dfa.n_states
        dfa.table_tag = (self.token, key)
        return key

    def leaf(self, kind: str, text: str, build: Callable[[], DFA]) -> DFA:
        dfa = self.leaves.get((kind, text))
        if dfa is None:
            return self._store(self.leaves, (kind, text), build())
        _recheck(dfa, "rlang.determinise")
        return dfa

    def product(self, op: str, operands: Sequence[DFA], build, phase) -> DFA:
        entry = (op, *map(self.key, operands))
        dfa = self.products.get(entry)
        if dfa is None:
            return self._store(self.products, entry, build())
        if phase is not None:
            _recheck(dfa, phase)
        return dfa

    def _store(self, entries: dict, entry, built: DFA) -> DFA:
        """Keep ``built`` under ``entry`` unless another thread stored an
        equal construction first; either way, return the stored one."""
        with self._lock:
            dfa = entries.setdefault(entry, built)
            if dfa is built:
                self.states += built.n_states
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
def run_table(table: Optional[RunTable] = None) -> Iterator[RunTable]:
    """Install ``table`` (by default a fresh one) for the current thread
    for the scope's duration.

    A nested scope reuses the table already installed, whatever it is
    given; the outermost scope uninstalls its table on exit, also when
    the run raises.  A fresh table is dropped then; a given one lives on
    with its owner."""
    installed = getattr(_tls, "table", None)
    if installed is not None:
        yield installed
        return
    table = _tls.table = table if table is not None else RunTable()
    try:
        yield table
    finally:
        _tls.table = None
