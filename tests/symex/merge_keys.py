"""Test-only references for state merging.

``Engine.merge_states`` hashes a state from a few scalars and three
fingerprints its variables, functions and constraint store keep up to
date on every write.  This module holds what the tests check that
against:

- each fingerprint recomputed from scratch;
- the merge key ``merge_states`` built before the fingerprints, a sorted tuple
  of every binding and every constraint;
- a prune built on that key, with the same diagnostic merge rule.
"""

from typing import List, Tuple

from repro.symex import SymState
from repro.symex.engine import _diag_identity


def env_fingerprint(state: SymState) -> int:
    fingerprint = 0
    for name, value in state.env.items():
        fingerprint ^= hash((name, value))
    return fingerprint


def functions_fingerprint(state: SymState) -> int:
    fingerprint = 0
    for name, body in state.functions.items():
        fingerprint ^= hash((name, id(body)))
    return fingerprint


def store_fingerprint(state: SymState) -> int:
    fingerprint = 0
    for vid, constraint in state.store._constraints.items():
        fingerprint ^= hash((vid, id(constraint)))
    return fingerprint


def assert_fingerprints_fresh(state: SymState) -> None:
    """Every fingerprint equals its value recomputed from the bindings."""
    assert state.env_fingerprint == env_fingerprint(state)
    assert state.functions_fingerprint == functions_fingerprint(state)
    assert state.store.fingerprint == store_fingerprint(state)


def legacy_key(st: SymState) -> tuple:
    """The merge key as a sorted tuple of every binding and constraint."""
    return (
        st.status,
        st.halted,
        tuple(sorted(st.env.items())),
        tuple(st.params),
        st.cwd_str,
        tuple((c.text, id(c.stream)) for c in st.stdout) if st.capturing else (),
        tuple((vid, id(c)) for vid, c in sorted(st.store._constraints.items())),
        st.bg_jobs,
        st.loop_control,
        st.argv_unknown,
        tuple(sorted((n, id(b)) for n, b in st.functions.items())),
    )


def legacy_prune(states: List[SymState]) -> Tuple[List[SymState], list, int]:
    """``(kept states, their merged diagnostics, merges)`` as a prune on
    :func:`legacy_key` computes them, without changing any state."""
    merged = {}
    order: List[SymState] = []
    diagnostics = {}
    merges = 0
    for st in states:
        key = legacy_key(st)
        if key in merged:
            merges += 1
            kept = diagnostics[id(merged[key])]
            held = set(map(_diag_identity, kept))
            for diagnostic in st.diagnostics:
                if _diag_identity(diagnostic) not in held:
                    held.add(_diag_identity(diagnostic))
                    kept.append(diagnostic)
        else:
            merged[key] = st
            order.append(st)
            diagnostics[id(st)] = list(st.diagnostics)
    return order, [diagnostics[id(st)] for st in order], merges
