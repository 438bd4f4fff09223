"""Thompson construction: regex AST -> NFA with CharSet-labelled edges."""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..records import Record
from .charclass import CharSet
from .syntax import Alt, Concat, Empty, Epsilon, Lit, Node, Repeat, Star


class NFA(Record):
    """Nondeterministic finite automaton.

    States are dense integers.  ``transitions[s]`` is a list of
    ``(charset, target)`` pairs; ``epsilons[s]`` is a set of targets.
    """

    __slots__ = ("start", "accept", "transitions", "epsilons", "n_states")

    def __init__(
        self,
        start: int = 0,
        accept: int = 1,
        transitions: Optional[Dict[int, List[Tuple[CharSet, int]]]] = None,
        epsilons: Optional[Dict[int, Set[int]]] = None,
        n_states: int = 2,
    ):
        self.start = start
        self.accept = accept
        self.transitions = {} if transitions is None else transitions
        self.epsilons = {} if epsilons is None else epsilons
        self.n_states = n_states

    def add_state(self) -> int:
        state = self.n_states
        self.n_states += 1
        return state

    def add_edge(self, src: int, charset: CharSet, dst: int) -> None:
        if charset.is_empty():
            return
        self.transitions.setdefault(src, []).append((charset, dst))

    def add_epsilon(self, src: int, dst: int) -> None:
        self.epsilons.setdefault(src, set()).add(dst)

    def epsilon_closure(self, states: FrozenSet[int]) -> FrozenSet[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            state = stack.pop()
            for target in self.epsilons.get(state, ()):
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)


def build_nfa(node: Node) -> NFA:
    """Compile a regex AST into an NFA accepting the same language."""
    nfa = NFA()
    _build(nfa, node, nfa.start, nfa.accept)
    return nfa


def _build(nfa: NFA, node: Node, entry: int, exit_: int) -> None:
    if isinstance(node, Empty):
        return  # no path from entry to exit
    if isinstance(node, Epsilon):
        nfa.add_epsilon(entry, exit_)
        return
    if isinstance(node, Lit):
        nfa.add_edge(entry, node.charset, exit_)
        return
    if isinstance(node, Concat):
        mid = nfa.add_state()
        _build(nfa, node.left, entry, mid)
        _build(nfa, node.right, mid, exit_)
        return
    if isinstance(node, Alt):
        _build(nfa, node.left, entry, exit_)
        _build(nfa, node.right, entry, exit_)
        return
    if isinstance(node, Star):
        hub = nfa.add_state()
        nfa.add_epsilon(entry, hub)
        nfa.add_epsilon(hub, exit_)
        _build(nfa, node.inner, hub, hub)
        return
    if isinstance(node, Repeat):
        _build_repeat(nfa, node, entry, exit_)
        return
    raise TypeError(f"unknown regex node {node!r}")


def _build_repeat(nfa: NFA, node: Repeat, entry: int, exit_: int) -> None:
    current = entry
    for _ in range(node.lo):
        nxt = nfa.add_state()
        _build(nfa, node.inner, current, nxt)
        current = nxt
    if node.hi is None:
        _build(nfa, Star(node.inner), current, exit_)
        return
    nfa.add_epsilon(current, exit_)
    for _ in range(node.hi - node.lo):
        nxt = nfa.add_state()
        _build(nfa, node.inner, current, nxt)
        nfa.add_epsilon(nxt, exit_)
        current = nxt
