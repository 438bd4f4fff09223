"""Boolean operations on DFAs via product construction.

Two DFAs generally carve the codepoint universe into different atoms; the
product is built over the common refinement of both partitions, so every
product transition is well defined on both sides.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple

from ..obs import get_recorder
from .charclass import MAX_CODEPOINT, CharSet
from .dfa import DFA, determinise
from .nfa import NFA


def _align(a: DFA, b: DFA) -> Tuple[List[CharSet], List[int], List[int]]:
    """The common refinement of both operands' atoms, and per common atom
    the index of the ``a`` atom and of the ``b`` atom holding it (the
    operand's "other" index where none does), each map ending with the
    "other" column.

    Both atom lists are sorted disjoint single intervals, so one merge
    sweep cuts the elementary intervals and maps them.  An elementary
    interval equal to an operand atom reuses that atom."""
    bound = (MAX_CODEPOINT + 1, MAX_CODEPOINT + 1)
    a_atoms, b_atoms = a.atoms, b.atoms
    n_a, n_b = len(a_atoms), len(b_atoms)
    atoms: List[CharSet] = []
    map_a: List[int] = []
    map_b: List[int] = []
    i = j = pos = 0
    while i < n_a or j < n_b:
        a_lo, a_hi = a_atoms[i].intervals[0] if i < n_a else bound
        b_lo, b_hi = b_atoms[j].intervals[0] if j < n_b else bound
        lo = max(pos, min(a_lo, b_lo))
        in_a, in_b = a_lo <= lo, b_lo <= lo
        hi = min(a_hi if in_a else a_lo - 1, b_hi if in_b else b_lo - 1)
        if in_a and (a_lo, a_hi) == (lo, hi):
            atoms.append(a_atoms[i])
        elif in_b and (b_lo, b_hi) == (lo, hi):
            atoms.append(b_atoms[j])
        else:
            atoms.append(CharSet.interval(lo, hi))
        map_a.append(i if in_a else n_a)
        map_b.append(j if in_b else n_b)
        if in_a and a_hi == hi:
            i += 1
        if in_b and b_hi == hi:
            j += 1
        pos = hi + 1
    map_a.append(n_a)
    map_b.append(n_b)
    return atoms, map_a, map_b


def _embed(nfa: NFA, dfa: DFA, translate=None) -> int:
    """Copy ``dfa``'s states and transitions into ``nfa`` (each label
    passed through ``translate`` when given); returns the offset of
    ``dfa``'s state 0."""
    other = CharSet(
        interval for atom in dfa.atoms for interval in atom.intervals
    ).complement()
    labels = list(dfa.atoms) + [other]
    if translate is not None:
        labels = [translate(label) for label in labels]
    offset = nfa.n_states
    nfa.n_states += dfa.n_states
    for src, row in enumerate(dfa.delta):
        for atom_idx, dst in enumerate(row):
            nfa.add_edge(offset + src, labels[atom_idx], offset + dst)
    return offset


#: Unconditional ceiling on product-construction size: pathological
#: regex intersections cannot allocate unboundedly even outside a
#: budgeted analysis.  Kept in lock-step with the recorded
#: ``rlang.product_states`` histogram — any legitimate construction in
#: this codebase is orders of magnitude smaller.
PRODUCT_STATE_CAP = 100_000

#: How often (in explored states) the growth checks sample the cap and
#: the active :class:`~repro.analysis.resilience.ResourceBudget`.
_CAP_STRIDE = 64


def product(a: DFA, b: DFA, accept: Callable[[bool, bool], bool]) -> DFA:
    """Product DFA whose acceptance combines the operands' with ``accept``.

    Growth is bounded: the construction checks :data:`PRODUCT_STATE_CAP`
    and the active analysis budget as it explores, raising
    :class:`~repro.analysis.resilience.AnalysisBudgetExceeded` instead
    of allocating without bound.
    """
    from ..analysis.resilience import enforce_dfa_cap

    atoms, map_a, map_b = _align(a, b)
    columns = list(zip(map_a, map_b))

    index: Dict[Tuple[int, int], int] = {(a.start, b.start): 0}
    order: List[Tuple[int, int]] = [(a.start, b.start)]
    delta: List[List[int]] = []
    accepting: Set[int] = set()

    pos = 0
    while pos < len(order):
        if pos % _CAP_STRIDE == 0 or len(order) > PRODUCT_STATE_CAP:
            enforce_dfa_cap(len(order), "rlang.product")
        sa, sb = order[pos]
        if accept(sa in a.accepting, sb in b.accepting):
            accepting.add(pos)
        row_a, row_b = a.delta[sa], b.delta[sb]
        row = []
        for col_a, col_b in columns:
            key = (row_a[col_a], row_b[col_b])
            target = index.get(key)
            if target is None:
                target = index[key] = len(order)
                order.append(key)
            row.append(target)
        delta.append(row)
        pos += 1

    # final check: a product that finished over-cap still trips, so a
    # small per-analysis budget bounds every construction deterministically
    enforce_dfa_cap(len(delta), "rlang.product")
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("rlang.product_calls")
        recorder.observe("rlang.product_states", len(delta))
    return DFA(atoms=atoms, delta=delta, accepting=accepting)


def intersection(a: DFA, b: DFA) -> DFA:
    return product(a, b, lambda x, y: x and y)


def union(a: DFA, b: DFA) -> DFA:
    return product(a, b, lambda x, y: x or y)


def difference(a: DFA, b: DFA) -> DFA:
    return product(a, b, lambda x, y: x and not y)


def complement(a: DFA) -> DFA:
    return DFA(
        atoms=list(a.atoms),
        delta=[list(row) for row in a.delta],
        accepting=set(range(a.n_states)) - a.accepting,
        start=a.start,
    )


def is_subset(a: DFA, b: DFA) -> bool:
    """Language containment: L(a) ⊆ L(b) iff L(a) \\ L(b) = ∅."""
    return difference(a, b).is_empty()


def is_disjoint(a: DFA, b: DFA) -> bool:
    return intersection(a, b).is_empty()


def equivalent(a: DFA, b: DFA) -> bool:
    return is_subset(a, b) and is_subset(b, a)


def concat_dfa(a: DFA, b: DFA) -> "DFA":
    """Concatenation via NFA glue (used by the Regex wrapper)."""
    nfa = NFA()
    offset_a = _embed(nfa, a)
    offset_b = _embed(nfa, b)
    nfa.add_epsilon(nfa.start, offset_a + a.start)
    for acc in a.accepting:
        nfa.add_epsilon(offset_a + acc, offset_b + b.start)
    for acc in b.accepting:
        nfa.add_epsilon(offset_b + acc, nfa.accept)
    return determinise(nfa)


def star(a: DFA) -> DFA:
    """Kleene star via NFA gluing."""
    nfa = NFA()
    offset = _embed(nfa, a)
    nfa.add_epsilon(nfa.start, nfa.accept)
    nfa.add_epsilon(nfa.start, offset + a.start)
    for acc in a.accepting:
        nfa.add_epsilon(offset + acc, nfa.accept)
        nfa.add_epsilon(offset + acc, offset + a.start)
    return determinise(nfa)


def right_quotient(a: DFA, b: DFA) -> DFA:
    """``L(a) / L(b)`` = { u : ∃v ∈ L(b), uv ∈ L(a) }.

    Same transition structure as ``a``; a state accepts iff some string of
    L(b) leads from it to an accepting state of ``a``.  Used to model the
    shell's ``${var%pattern}`` suffix-strip expansion symbolically.
    """
    atoms, map_a, map_b = _align(a, b)
    n_cols = len(atoms) + 1

    # Forward-explore pairs (qa, qb) from every (qa, b.start); mark qa
    # accepting in the quotient when a pair with qa-path reaches accept×accept.
    # Equivalently: compute, for each qa, reachability in the product from
    # (qa, b.start) to accepting pairs.  We do one backward pass instead:
    # build the full product over all pairs and find pairs that can reach
    # accept×accept, then test (qa, b.start).
    n_a, n_b = a.n_states, b.n_states
    can_reach = [[False] * n_b for _ in range(n_a)]
    # reverse edges of the product
    reverse: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for qa in range(n_a):
        for qb in range(n_b):
            for col in range(n_cols):
                ta = a.delta[qa][map_a[col]]
                tb = b.delta[qb][map_b[col]]
                reverse.setdefault((ta, tb), []).append((qa, qb))
    stack = [
        (qa, qb)
        for qa in a.accepting
        for qb in b.accepting
    ]
    for qa, qb in stack:
        can_reach[qa][qb] = True
    while stack:
        pair = stack.pop()
        for qa, qb in reverse.get(pair, ()):
            if not can_reach[qa][qb]:
                can_reach[qa][qb] = True
                stack.append((qa, qb))
    accepting = {qa for qa in range(n_a) if can_reach[qa][b.start]}
    return DFA(
        atoms=list(a.atoms),
        delta=[list(row) for row in a.delta],
        accepting=accepting,
        start=a.start,
    )


def left_quotient(b: DFA, a: DFA) -> DFA:
    """``L(b) \\ L(a)`` = { v : ∃u ∈ L(b), uv ∈ L(a) }.

    Models ``${var#pattern}`` prefix stripping: the possible remainders of
    strings in ``a`` after removing a prefix belonging to ``b``.
    """
    atoms, map_a, map_b = _align(a, b)
    n_cols = len(atoms) + 1

    # Forward product exploration from (a.start, b.start); the set of
    # a-states reachable while b accepts becomes the start set of an NFA
    # over a's transitions.
    start_states: set = set()
    seen = {(a.start, b.start)}
    stack = [(a.start, b.start)]
    while stack:
        qa, qb = stack.pop()
        if qb in b.accepting:
            start_states.add(qa)
        for col in range(n_cols):
            pair = (a.delta[qa][map_a[col]], b.delta[qb][map_b[col]])
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)

    nfa = NFA()
    offset = _embed(nfa, a)
    for qa in start_states:
        nfa.add_epsilon(nfa.start, offset + qa)
    for acc in a.accepting:
        nfa.add_epsilon(offset + acc, nfa.accept)
    return determinise(nfa)


def map_chars(a: DFA, translate) -> DFA:
    """Homomorphic image: the language { h(s) : s ∈ L(a) } where ``h``
    maps each character independently.  ``translate(charset) -> charset``
    must return the image of a character set under h.  Regular languages
    are closed under such per-character substitution; the construction
    relabels every transition with its image set (via an NFA, since
    non-injective maps break determinism).

    Models length-preserving stream transformers like ``tr a-z A-Z``.
    """
    nfa = NFA()
    offset = _embed(nfa, a, translate)
    nfa.add_epsilon(nfa.start, offset + a.start)
    for acc in a.accepting:
        nfa.add_epsilon(offset + acc, nfa.accept)
    return determinise(nfa)
