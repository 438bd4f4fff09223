"""E16 (extension, §5 "Performance"): read/write dependency analysis.

Shape: the analysis recovers exactly the dependence edges a speculative
executor needs — the parallel schedule keeps all truly-independent
stages in the same generation, and unknown commands degrade safely to
barriers.
"""

import time

from conftest import emit

from repro.analysis.deps import analyze_dependencies
from repro.obs import TraceRecorder, use_recorder

SCRIPT = """mkdir -p /report
grep ERROR /var/log/a.log >/report/a.txt
grep ERROR /var/log/b.log >/report/b.txt
grep WARN /var/log/a.log >/report/warn.txt
cat /report/a.txt
sort /var/log/c.log >/report/c.txt
"""


def test_schedule_shape():
    graph = analyze_dependencies(SCRIPT)
    stages = graph.stages()
    rows = ["stage " + str(i) + ": " + ", ".join(
        graph.effects[j].source for j in stage
    ) for i, stage in enumerate(stages)]
    emit("E16 (dependency schedule)", rows)
    # mkdir is a barrier; the three filters + sort run together; cat waits
    assert stages[0] == [0]
    assert set(stages[1]) >= {1, 2, 3, 5}
    assert 4 in stages[2]


def test_independence_count():
    graph = analyze_dependencies(SCRIPT)
    pairs = graph.independent_pairs()
    # the three greps and the sort are mutually independent: C(4,2)=6 pairs
    greps = {1, 2, 3, 5}
    grep_pairs = [p for p in pairs if set(p) <= greps]
    assert len(grep_pairs) == 6


def test_unknown_command_degrades_to_barrier():
    graph = analyze_dependencies("custom-tool\necho done >/log\n")
    assert graph.must_precede(0, 1)


def test_dependency_analysis_cost(benchmark):
    graph = benchmark(analyze_dependencies, SCRIPT)
    assert graph.dependencies


def test_scaling_with_commands():
    """Count guard for the states deps evaluates.  Deps carries states
    to the next command through the engine's merge, but only states
    whose file systems agree merge: an edge is a pair of fs node ids,
    and a merge keeps one state's.  Here none agree (a grep that matched
    knows its input file exists, one that did not knows nothing of it),
    so the carried set doubles at every grep until ``max_fork`` (64)
    caps it: 31, 767 and 3839 states for 4, 16 and 64 greps, as with the
    plain cut."""
    rows = []
    explored = {}
    for n in [4, 16, 64]:
        lines = ["mkdir -p /out"]
        lines += [f"grep E /l/{i}.log >/out/{i}.txt" for i in range(n)]
        source = "\n".join(lines) + "\n"
        recorder = TraceRecorder()
        start = time.perf_counter()
        with use_recorder(recorder):
            graph = analyze_dependencies(source)
        elapsed = time.perf_counter() - start
        explored[n] = recorder.counter("symex.states_explored")
        rows.append(f"{n:3} commands: {elapsed*1e3:7.1f} ms, "
                    f"{len(graph.dependencies)} edges, "
                    f"{explored[n]} states evaluated")
        # all greps parallel after mkdir
        assert len(graph.stages()) == 2
    emit("E16b (dependency analysis scaling)", rows)
    assert explored == {4: 31, 16: 767, 64: 3839}
