"""Deterministic automata: subset construction and Hopcroft minimisation.

A :class:`DFA` here is *complete over atoms*: its alphabet is a partition
of the full codepoint universe into disjoint :class:`CharSet` atoms, plus
an implicit "everything else" atom.  State 0 is always the start state; a
dedicated sink state absorbs undefined transitions, making complement a
matter of flipping accepting states.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..obs import get_recorder
from .charclass import CharSet, partition
from .nfa import NFA


@dataclass
class DFA:
    """Complete DFA over a partitioned alphabet.

    ``atoms`` are disjoint charsets covering every character that appears
    on any transition; characters outside all atoms behave like the
    "other" pseudo-atom (index ``len(atoms)``).  ``delta[state]`` maps an
    atom index (including the "other" index) to a target state.
    """

    atoms: List[CharSet]
    delta: List[List[int]]
    accepting: Set[int]
    start: int = 0

    #: ``(token, key)`` set by the :class:`~repro.rlang.table.RunTable`
    #: that last keyed this DFA (not a field: no part of equality)
    table_tag = None

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def atom_index(self, char: str) -> int:
        """Binary search over the atoms, which are sorted, disjoint single
        intervals (every constructor takes them from :func:`partition`)."""
        code = ord(char)
        atoms = self.atoms
        lo, hi = 0, len(atoms)
        while lo < hi:
            mid = (lo + hi) // 2
            first, last = atoms[mid].intervals[0]
            if code < first:
                hi = mid
            elif code > last:
                lo = mid + 1
            else:
                return mid
        return len(atoms)

    def step(self, state: int, char: str) -> int:
        return self.delta[state][self.atom_index(char)]

    def accepts(self, text: str) -> bool:
        state = self.start
        for char in text:
            state = self.delta[state][self.atom_index(char)]
        return state in self.accepting

    def live_states(self) -> Set[int]:
        """States on some path start -> ... -> accepting."""
        reachable = {self.start}
        stack = [self.start]
        while stack:
            state = stack.pop()
            for target in self.delta[state]:
                if target not in reachable:
                    reachable.add(target)
                    stack.append(target)
        # reverse reachability from accepting states
        reverse: Dict[int, Set[int]] = {}
        for src, row in enumerate(self.delta):
            for dst in row:
                reverse.setdefault(dst, set()).add(src)
        coreachable = set(self.accepting)
        stack = list(self.accepting)
        while stack:
            state = stack.pop()
            for src in reverse.get(state, ()):
                if src not in coreachable:
                    coreachable.add(src)
                    stack.append(src)
        return reachable & coreachable

    def is_empty(self) -> bool:
        """No accepting state is reachable from ``start``."""
        accepting = self.accepting
        if self.start in accepting:
            return False
        seen = {self.start}
        stack = [self.start]
        while stack:
            for target in self.delta[stack.pop()]:
                if target not in seen:
                    if target in accepting:
                        return False
                    seen.add(target)
                    stack.append(target)
        return True

    def is_finite(self) -> bool:
        """True when the accepted language is finite (no live cycle)."""
        live = self.live_states()
        # DFS cycle detection restricted to live states
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {state: WHITE for state in live}
        for root in live:
            if colour[root] != WHITE:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            colour[root] = GREY
            while stack:
                state, edge_idx = stack[-1]
                row = self.delta[state]
                advanced = False
                for idx in range(edge_idx, len(row)):
                    target = row[idx]
                    if target not in live:
                        continue
                    stack[-1] = (state, idx + 1)
                    if colour[target] == GREY:
                        return False
                    if colour[target] == WHITE:
                        colour[target] = GREY
                        stack.append((target, 0))
                        advanced = True
                        break
                if not advanced:
                    colour[state] = BLACK
                    stack.pop()
        return True

    def shortest_accepted(self) -> Optional[str]:
        """A shortest string in the language, or None when empty."""
        if self.start in self.accepting:
            return ""
        parents: Dict[int, Tuple[int, int]] = {}
        queue = [self.start]
        seen = {self.start}
        while queue:
            nxt: List[int] = []
            for state in queue:
                for atom_idx, target in enumerate(self.delta[state]):
                    if target in seen:
                        continue
                    seen.add(target)
                    parents[target] = (state, atom_idx)
                    if target in self.accepting:
                        return self._trace(parents, target)
                    nxt.append(target)
            queue = nxt
        return None

    def _trace(self, parents: Dict[int, Tuple[int, int]], state: int) -> str:
        chars: List[str] = []
        while state in parents:
            state, atom_idx = parents[state]
            chars.append(self._atom_sample(atom_idx))
        return "".join(reversed(chars))

    def _atom_sample(self, atom_idx: int) -> str:
        if atom_idx < len(self.atoms):
            return self.atoms[atom_idx].sample()
        # "other" atom: any codepoint not in any atom
        covered = CharSet.empty()
        for atom in self.atoms:
            covered = covered.union(atom)
        return covered.complement().sample()

    def enumerate(self, limit: int = 16, max_len: int = 32) -> List[str]:
        """Up to ``limit`` accepted strings, in length order (BFS)."""
        results: List[str] = []
        frontier: List[Tuple[int, str]] = [(self.start, "")]
        live = self.live_states()
        depth = 0
        while frontier and len(results) < limit and depth <= max_len:
            nxt: List[Tuple[int, str]] = []
            for state, text in frontier:
                if state in self.accepting:
                    results.append(text)
                    if len(results) >= limit:
                        return results
            for state, text in frontier:
                for atom_idx, target in enumerate(self.delta[state]):
                    if target in live:
                        nxt.append((target, text + self._atom_sample(atom_idx)))
            frontier = nxt
            depth += 1
        return results


def _live_states(nfa: NFA) -> Set[int]:
    """The NFA states that can reach ``accept`` over edges and epsilons."""
    reverse: Dict[int, List[int]] = {}
    for src, edges in nfa.transitions.items():
        for _, dst in edges:
            reverse.setdefault(dst, []).append(src)
    for src, dsts in nfa.epsilons.items():
        for dst in dsts:
            reverse.setdefault(dst, []).append(src)
    live = {nfa.accept}
    stack = [nfa.accept]
    while stack:
        for src in reverse.get(stack.pop(), ()):
            if src not in live:
                live.add(src)
                stack.append(src)
    return live


def _atom_runs(
    nfa: NFA, atoms: List[CharSet], live: Set[int]
) -> Dict[int, List[Tuple[int, int, int]]]:
    """Per live NFA state, its edges into live states as ``(first, stop,
    dst)`` runs of atom indices.  The atoms are sorted disjoint intervals
    refining every edge label, so each edge interval covers the
    contiguous run of atoms whose start lies inside it."""
    starts = [atom.intervals[0][0] for atom in atoms]
    runs: Dict[int, List[Tuple[int, int, int]]] = {}
    for state, edges in nfa.transitions.items():
        if state not in live:
            continue
        out = runs[state] = []
        for charset, dst in edges:
            if dst not in live:
                continue
            for lo, hi in charset.intervals:
                first = bisect_left(starts, lo)
                stop = bisect_right(starts, hi)
                if first < stop:
                    out.append((first, stop, dst))
    return runs


def determinise(nfa: NFA) -> DFA:
    """Subset construction with alphabet compression.

    Only live NFA states (those that can reach ``accept``) enter a
    subset: a dead state changes no subset's language, and keeping it
    would tell equal DFA states apart by the dead states they hold (a
    glued complete DFA brings its sink along).  Every dead subset thus
    collapses into the empty-subset sink.  The atoms still come from
    every edge label, so the alphabet does not depend on liveness.

    Bounded like :func:`~repro.rlang.ops.product`: the subset frontier is
    checked against the hard DFA cap and the active analysis budget as
    it grows, so exponential blowups degrade instead of exhausting
    memory.
    """
    from ..analysis.resilience import enforce_dfa_cap

    all_sets = [cs for edges in nfa.transitions.values() for cs, _ in edges]
    atoms = partition(all_sets)
    other_idx = len(atoms)
    live = _live_states(nfa)
    runs = _atom_runs(nfa, atoms, live)

    start = nfa.epsilon_closure(frozenset({nfa.start})) & live
    index: Dict[FrozenSet[int], int] = {start: 0}
    delta: List[List[int]] = []
    accepting: Set[int] = set()
    order: List[FrozenSet[int]] = [start]
    #: NFA target set -> DFA state of its epsilon closure
    successor: Dict[FrozenSet[int], int] = {}

    def state_id(subset: FrozenSet[int]) -> int:
        if subset not in index:
            index[subset] = len(order)
            order.append(subset)
        return index[subset]

    pos = 0
    while pos < len(order):
        if pos % 64 == 0:
            enforce_dfa_cap(len(order), "rlang.determinise")
        subset = order[pos]
        if nfa.accept in subset:
            accepting.add(pos)
        targets: List[Set[int]] = [set() for _ in range(other_idx)]
        for state in subset:
            for first, stop, dst in runs.get(state, ()):
                for atom_idx in range(first, stop):
                    targets[atom_idx].add(dst)
        row = []
        for dsts in targets:
            key = frozenset(dsts)
            target = successor.get(key)
            if target is None:
                target = successor[key] = state_id(nfa.epsilon_closure(key) & live)
            row.append(target)
        row.append(state_id(frozenset()))
        delta.append(row)
        pos += 1

    enforce_dfa_cap(len(delta), "rlang.determinise")
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("rlang.determinise_calls")
        recorder.observe("rlang.dfa_states", len(delta))
        recorder.observe("rlang.dfa_atoms", len(atoms))
    return DFA(atoms=atoms, delta=delta, accepting=accepting)


def minimise(dfa: DFA) -> DFA:
    """Hopcroft's partition-refinement minimisation."""
    n = dfa.n_states
    n_atoms = len(dfa.atoms) + 1
    accepting = frozenset(dfa.accepting)
    non_accepting = frozenset(range(n)) - accepting

    partitions: List[Set[int]] = [set(p) for p in (accepting, non_accepting) if p]
    worklist: List[int] = list(range(len(partitions)))

    # precompute inverse transitions per atom
    inverse: List[Dict[int, Set[int]]] = [dict() for _ in range(n_atoms)]
    for src in range(n):
        for atom_idx, dst in enumerate(dfa.delta[src]):
            inverse[atom_idx].setdefault(dst, set()).add(src)

    while worklist:
        splitter_idx = worklist.pop()
        splitter = set(partitions[splitter_idx])
        for atom_idx in range(n_atoms):
            sources: Set[int] = set()
            inv = inverse[atom_idx]
            for state in splitter:
                sources |= inv.get(state, set())
            if not sources:
                continue
            for part_idx in range(len(partitions)):
                part = partitions[part_idx]
                inside = part & sources
                if not inside or inside == part:
                    continue
                outside = part - inside
                partitions[part_idx] = inside
                partitions.append(outside)
                new_idx = len(partitions) - 1
                if part_idx in worklist:
                    worklist.append(new_idx)
                else:
                    worklist.append(
                        part_idx if len(inside) <= len(outside) else new_idx
                    )

    block_of = {}
    for block_idx, block in enumerate(partitions):
        for state in block:
            block_of[state] = block_idx

    # Rebuild with the start block renumbered to 0.
    renumber: Dict[int, int] = {}

    def new_id(block_idx: int) -> int:
        if block_idx not in renumber:
            renumber[block_idx] = len(renumber)
        return renumber[block_idx]

    start_block = block_of[dfa.start]
    new_id(start_block)
    new_delta: List[List[int]] = []
    order = [start_block]
    pos = 0
    while pos < len(order):
        current = order[pos]
        representative = next(iter(partitions[current]))
        row = []
        for atom_idx in range(n_atoms):
            target_block = block_of[dfa.delta[representative][atom_idx]]
            if target_block not in renumber:
                renumber[target_block] = len(renumber)
                order.append(target_block)
            row.append(renumber[target_block])
        new_delta.append(row)
        pos += 1

    new_accepting = {
        renumber[block_of[state]]
        for state in dfa.accepting
        if block_of[state] in renumber
    }
    recorder = get_recorder()
    if recorder.enabled:
        recorder.count("rlang.minimise_calls")
        recorder.observe("rlang.min_dfa_states", len(new_delta))
    return DFA(atoms=list(dfa.atoms), delta=new_delta, accepting=new_accepting)
