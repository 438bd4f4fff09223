"""Directed-graph helpers over adjacency dicts.

A graph is a mapping ``node -> iterable of successors``; every node
appears as a key, and iteration order of the keys is the graph's node
order.  The dependence graph (``analysis.deps``) and the stream
dataflow graph (``rtypes.dataflow``) need only these few queries, so the
standard library's :mod:`graphlib` plus two small searches cover them.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Dict, Hashable, Iterable, List, Mapping, Set

Graph = Mapping[Hashable, Iterable[Hashable]]


def _sorter(graph: Graph) -> TopologicalSorter:
    sorter: TopologicalSorter = TopologicalSorter()
    for node, successors in graph.items():
        sorter.add(node)
        for successor in successors:
            sorter.add(successor, node)
    return sorter


def is_acyclic(graph: Graph) -> bool:
    try:
        _sorter(graph).prepare()
    except CycleError:
        return False
    return True


def topological_generations(graph: Graph) -> List[List[Hashable]]:
    """Layers of a DAG: each holds the nodes whose predecessors all lie
    in earlier layers.  Raises :class:`graphlib.CycleError` on a cycle."""
    sorter = _sorter(graph)
    sorter.prepare()
    generations = []
    while sorter.is_active():
        generation = list(sorter.get_ready())
        sorter.done(*generation)
        generations.append(generation)
    return generations


def descendants(graph: Graph, root: Hashable) -> Set[Hashable]:
    """The nodes reachable from ``root`` by a path of one or more edges."""
    seen: Set[Hashable] = set()
    stack = list(graph[root])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(graph.get(node, ()))
    return seen


def reachability(graph: Graph) -> Dict[Hashable, Set[Hashable]]:
    """The transitive closure: each node's :func:`descendants`."""
    return {root: descendants(graph, root) for root in graph}


def simple_cycles(graph: Graph) -> List[List[Hashable]]:
    """Every elementary cycle, once each: a cycle is listed from its
    earliest node (in the graph's node order), found by a depth-first
    search over simple paths through later nodes only."""
    rank = {node: idx for idx, node in enumerate(graph)}
    cycles: List[List[Hashable]] = []
    for root in graph:
        floor = rank[root]
        path = [root]
        on_path = {root}
        stack = [iter(graph[root])]
        while stack:
            for node in stack[-1]:
                if node == root:
                    cycles.append(list(path))
                elif node not in on_path and rank.get(node, -1) > floor:
                    path.append(node)
                    on_path.add(node)
                    stack.append(iter(graph.get(node, ())))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return cycles
