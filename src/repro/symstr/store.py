"""Constraint store: symbolic string variables and their refinements.

Each symbolic variable is an integer id with a regular-language
constraint describing its possible values (paper §3: "generate and track
relevant constraints on state").  Stores are forked cheaply when symbolic
execution branches; refinement narrows a variable's constraint along one
path without affecting sibling paths.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

from ..rlang import Regex

_ids = itertools.count(1)

#: Provenance tags record how a derived variable was computed, enabling
#: relational refinement (e.g. a branch on ``$(realpath X)`` refines X).
Provenance = Tuple[str, object]


class ConstraintStore:
    """Mapping var-id -> (constraint, label, provenance), fork-friendly.

    The store keeps an order-independent fingerprint of its constraint
    bindings, the XOR of ``hash((vid, id(constraint)))`` over every
    variable.  Every write below updates it and :meth:`fork` carries it
    over, so state merging hashes the store in O(1); :meth:`same_as`
    then confirms a fingerprint match binding by binding."""

    __slots__ = ("_constraints", "_labels", "_provenance", "fingerprint")

    def __init__(self):
        self._constraints: Dict[int, Regex] = {}
        self._labels: Dict[int, str] = {}
        self._provenance: Dict[int, Provenance] = {}
        self.fingerprint = 0

    def fork(self) -> "ConstraintStore":
        child = ConstraintStore.__new__(ConstraintStore)
        child._constraints = self._constraints.copy()
        child._labels = self._labels.copy()
        child._provenance = self._provenance.copy()
        child.fingerprint = self.fingerprint
        return child

    def fresh(
        self,
        constraint: Optional[Regex] = None,
        label: str = "",
        provenance: Optional[Provenance] = None,
    ) -> int:
        vid = next(_ids)
        self.bind(
            vid,
            constraint if constraint is not None else Regex.any_string(),
            label,
            provenance,
        )
        return vid

    def bind(
        self,
        vid: int,
        constraint: Regex,
        label: str = "",
        provenance: Optional[Provenance] = None,
    ) -> None:
        """Enter variable ``vid``, which this store does not hold yet
        (:meth:`fresh` picks a new id; a replayed summary brings its own)."""
        self._constraints[vid] = constraint
        self.fingerprint ^= hash((vid, id(constraint)))
        if label:
            self._labels[vid] = label
        if provenance is not None:
            self._provenance[vid] = provenance

    def constraint(self, vid: int) -> Regex:
        return self._constraints[vid]

    def label(self, vid: int) -> str:
        return self._labels.get(vid, f"v{vid}")

    def provenance(self, vid: int) -> Optional[Provenance]:
        return self._provenance.get(vid)

    def refine(self, vid: int, constraint: Regex) -> Regex:
        """Intersect a variable's constraint; returns the new constraint.

        An empty result means the current path is infeasible — callers
        check :meth:`is_feasible` after refining.
        """
        return self._replace(vid, self._constraints[vid] & constraint)

    def exclude(self, vid: int, constraint: Regex) -> Regex:
        """Subtract a language from a variable's constraint."""
        return self._replace(vid, self._constraints[vid] - constraint)

    def _replace(self, vid: int, refined: Regex) -> Regex:
        old = self._constraints[vid]
        self._constraints[vid] = refined
        self.fingerprint ^= hash((vid, id(old))) ^ hash((vid, id(refined)))
        return refined

    def is_feasible(self, vid: int) -> bool:
        return not self._constraints[vid].is_empty()

    def __contains__(self, vid: int) -> bool:
        return vid in self._constraints

    def __len__(self) -> int:
        return len(self._constraints)

    def same_as(self, other: "ConstraintStore") -> bool:
        """Do both stores bind the same variables to literally the same
        constraint *objects*?  Forked stores share Regex objects until a
        refinement replaces one, so this is the merge test: sound (never
        conflates differently-refined worlds), and precise enough because
        refinements are the only mutations."""
        mine = self._constraints
        theirs = other._constraints
        if len(mine) != len(theirs):
            return False
        for vid, constraint in mine.items():
            if theirs.get(vid) is not constraint:
                return False
        return True
