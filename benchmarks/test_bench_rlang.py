"""E14: regular-language engine microbenchmarks.

The paper's pitch for regular formalisms (§3) includes "computational
efficiency"; this bench quantifies the core operations on the type
library's realistic languages.
"""

import pytest
from conftest import emit

from repro.rlang import Regex

LSB = r"(Distributor ID|Description|Release|Codename):\t.*"
LONGLIST = r"[bcdlps-][rwxsStT-]{9}\+?\s+[0-9]+\s+\S+\s+\S+\s+[0-9]+\s+.*"
URL = r"(https?|ftp)://[^\s]+"
PATH = r"/?([^/\n]*/)*[^/\n]+"
HEX = r"0x[0-9a-f]+.*"


@pytest.mark.parametrize(
    "name,pattern",
    [("lsb", LSB), ("longlist", LONGLIST), ("url", URL), ("path", PATH)],
)
def test_compile_cost(benchmark, name, pattern):
    benchmark(Regex.compile, pattern)


def test_intersection_cost(benchmark):
    lsb = Regex.compile(LSB)
    desc = Regex.compile("desc.*")
    result = benchmark(lambda: (lsb & desc).is_empty())
    assert result


def test_containment_cost(benchmark):
    narrow = Regex.literal("0x") + Regex.compile("[0-9a-f]+")
    wide = Regex.compile(HEX)
    assert benchmark(lambda: narrow <= wide)


def test_complement_cost(benchmark):
    url = Regex.compile(URL)
    comp = benchmark(lambda: ~url)
    assert comp.matches("not a url")


def test_equivalence_cost(benchmark):
    a = Regex.compile("(a|b)*abb")
    b = Regex.compile("(b|a)*abb")
    assert benchmark(lambda: a == b)


def test_quotient_cost(benchmark):
    path = Regex.compile(PATH)
    from repro.shell.glob import glob_to_regex

    slash_star = glob_to_regex("/*")
    quotient = benchmark(lambda: path.strip_suffix(slash_star))
    assert quotient.matches("")


def test_minimisation_cost(benchmark):
    pattern = Regex.compile("(a|b)*a(a|b){4}")
    mdfa = benchmark(lambda: __import__("repro.rlang", fromlist=["minimise"]).minimise(pattern.dfa))
    assert mdfa.n_states <= pattern.dfa.n_states


def test_operation_size_table():
    rows = []
    for name, pattern in [("lsb", LSB), ("longlist", LONGLIST), ("url", URL), ("path", PATH), ("hex", HEX)]:
        regex = Regex.compile(pattern)
        rows.append(
            f"{name:9} dfa={regex.dfa.n_states:4} states  "
            f"min={regex.min_dfa.n_states:4} states  "
            f"atoms={len(regex.dfa.atoms):3}"
        )
    emit("E14 (automata sizes for library types)", rows)


@pytest.mark.parametrize("seed,ceiling", [(5, 90), (11, 40)])
def test_product_constructions_per_analysis(seed, ceiling):
    """Count guard for the run's language table: a generated script
    whose ``case`` sits in nested loops builds each product once per
    run, not once per forked state and iteration (thousands before the
    table).  Counts, not milliseconds, so the guard is machine-stable."""
    from repro.analysis import analyze
    from repro.analysis.difftest.campaign import CampaignConfig
    from repro.analysis.difftest.gen import generate
    from repro.obs import TraceRecorder, use_recorder

    recorder = TraceRecorder()
    with use_recorder(recorder):
        analyze(generate(seed, safe=True), **CampaignConfig().analyze_kwargs())
    products = recorder.counter("rlang.product_calls")
    emit(
        f"E14 (product constructions, generated seed {seed})",
        [f"rlang.product_calls={products}  ceiling={ceiling}"],
    )
    assert 0 < products <= ceiling


def test_determinise_constructions_per_analysis():
    """Count guard for building each language once: over the examples
    and the labelled corpus, subset constructions stay at most 6 per
    analysis (9.2 when concatenation, star and the quotients were
    rebuilt per call and the entry state's path languages per run).
    Counts, not milliseconds, so the guard is machine-stable."""
    from pathlib import Path

    from repro.analysis import analyze
    from repro.analysis.corpus import corpus
    from repro.obs import TraceRecorder, use_recorder

    examples = Path(__file__).resolve().parents[1] / "examples" / "scripts"
    items = [(path.read_text(encoding="utf-8"), {}) for path in sorted(examples.glob("*.sh"))]
    items += [(script.source, {"n_args": script.n_args}) for script in corpus()]
    recorder = TraceRecorder()
    with use_recorder(recorder):
        for source, kwargs in items:
            analyze(source, **kwargs)
    calls = recorder.counter("rlang.determinise_calls")
    emit(
        "E14 (subset constructions, examples and labelled corpus)",
        [f"rlang.determinise_calls={calls} over {len(items)} analyses "
         f"({calls / len(items):.2f} each)  ceiling=6 each"],
    )
    assert len(items) == 61
    assert 0 < calls <= 6 * len(items)
