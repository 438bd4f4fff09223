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
    to the next command through the engine's merge and joins the file
    systems of the states it merges (``FileSystem.join``), so a grep that
    matched (it knows its input file exists) and one that did not (it
    knows nothing of it) become one state whose fs says the file may
    exist.  The carried set stays at one state per outcome, and the
    count grows linearly: 9, 33 and 129 states for 4, 16 and 64 greps,
    with no truncation.  It was 31, 767 and 3839 (and 59 truncations at
    64) while states merged only when their fs facts were equal."""
    rows = []
    explored = {}
    truncations = {}
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
        truncations[n] = recorder.counter("symex.truncations")
        rows.append(f"{n:3} commands: {elapsed*1e3:7.1f} ms, "
                    f"{len(graph.dependencies)} edges, "
                    f"{explored[n]} states evaluated, "
                    f"{truncations[n]} truncations")
        # all greps parallel after mkdir
        assert len(graph.stages()) == 2
    emit("E16b (dependency analysis scaling)", rows)
    assert explored == {4: 9, 16: 33, 64: 129}
    assert truncations[64] == 0
