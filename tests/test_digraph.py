"""The adjacency-dict graph helpers behind the dependence and dataflow
graphs."""

import graphlib

import pytest

from repro.digraph import (
    descendants,
    is_acyclic,
    reachability,
    simple_cycles,
    topological_generations,
)

DAG = {0: {2}, 1: {2, 3}, 2: {4}, 3: set(), 4: set()}

#: cycles 0-1-0, 1-2-1, 0-1-2-0 and the self-loop at 3
CYCLIC = {0: [1], 1: [0, 2], 2: [1, 0], 3: [3]}


class TestDigraph:
    def test_generations_layer_a_dag(self):
        generations = [sorted(g) for g in topological_generations(DAG)]
        assert generations == [[0, 1], [2, 3], [4]]

    def test_generations_reject_a_cycle(self):
        with pytest.raises(graphlib.CycleError):
            topological_generations(CYCLIC)

    def test_acyclic(self):
        assert is_acyclic(DAG)
        assert not is_acyclic(CYCLIC)
        assert not is_acyclic({"a": ["a"]})

    def test_reachability_is_the_transitive_closure(self):
        assert reachability(DAG) == {
            0: {2, 4}, 1: {2, 3, 4}, 2: {4}, 3: set(), 4: set(),
        }
        # a node reaches itself only through a cycle
        assert descendants(CYCLIC, 0) == {0, 1, 2}
        assert descendants(CYCLIC, 3) == {3}

    def test_simple_cycles_lists_each_cycle_once(self):
        cycles = simple_cycles(CYCLIC)
        assert sorted(cycles) == [[0, 1], [0, 1, 2], [1, 2], [3]]
        assert simple_cycles(DAG) == []
