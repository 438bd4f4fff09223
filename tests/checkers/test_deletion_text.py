"""A concrete deletion operand decided on text: the one string ``t`` it
denotes meets the danger language iff that language matches ``t``; the
witness is then ``t`` and the finding holds always, and a finite
language never makes a home finding.  The answer, and where a tight
DFA-state cap degrades a report, must be the ones the automata gave."""

from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.corpus import corpus
from repro.analysis.difftest.campaign import CampaignConfig
from repro.analysis.difftest.gen import generate
from repro.budget import ResourceBudget
from repro.checkers.deletion import DangerousDeletionChecker
from repro.obs import TraceRecorder, use_recorder
from repro.symstr import ConstraintStore, SymString

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "scripts"

#: spellings at the edges of the danger and home languages
EDGES = ["", "/", "//", "/.", "/..", "/./x", "/../x", "/opt/", "/opt/..", "/opt/x",
         "/home/u", "/home/u/", "/root", "/root/x", "a b/é", ".", "..", "x"]


def _sources():
    for path in sorted(EXAMPLES.glob("*.sh")):
        yield path.read_text(encoding="utf-8"), {}
    for script in corpus():
        yield script.source, {"n_args": script.n_args}
    kwargs = CampaignConfig().analyze_kwargs()
    for seed in range(40):
        yield generate(seed, safe=True), kwargs


@pytest.fixture(scope="module")
def concrete_operands():
    """Every concrete operand the deletion checker sees over the
    examples, the labelled corpus and safe generator seeds 0-39."""
    seen = set()
    real = DangerousDeletionChecker.on_delete

    def recording(self, state, node, operand, recursive):
        if operand.concrete_value() is not None:
            seen.add(operand)
        return real(self, state, node, operand, recursive)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DangerousDeletionChecker, "on_delete", recording)
        for source, kwargs in _sources():
            analyze(source, **kwargs)
    return sorted(seen, key=lambda operand: operand.concrete_value())


def test_text_answer_equals_the_automaton_answer(concrete_operands):
    assert len(concrete_operands) >= 10
    checker = DangerousDeletionChecker()
    store = ConstraintStore()
    operands = concrete_operands + [SymString.lit(text) for text in EDGES]
    answers = set()
    for operand in operands:
        got = checker.finding(operand, store)
        assert got == checker.language_finding(operand, store), operand
        answers.add(got is None)
    assert answers == {True, False}


def test_concrete_operands_build_no_automaton(concrete_operands):
    checker = DangerousDeletionChecker()
    store = ConstraintStore()
    checker.finding(SymString.lit("/"), store)  # builds the constant language
    recorder = TraceRecorder()
    with use_recorder(recorder):
        for operand in concrete_operands:
            checker.finding(operand, store)
    assert recorder.counter("rlang.product_calls") == 0
    assert recorder.counter("rlang.determinise_calls") == 0


SCRIPT = "rm -rf /opt/\nrm -rf /tmp/build/out\nrm -f ./a.log\nrm -rf /\n"

#: the danger language has 14 states: the text answer needs
#: 15 * (len(t) + 2) states of cap, 105 for ``/opt/`` and 240 for
#: ``/tmp/build/out``
CAPS = [*range(2, 49), 64, 96, 104, 105, 128, 192, 239, 240, 256, 512, 1024]


def test_dfa_cap_degrades_where_it_did(monkeypatch):
    def renders():
        out = []
        for cap in CAPS:
            report = analyze(SCRIPT, budget=ResourceBudget(max_dfa_states=cap))
            out.append((report.degraded, report.render()))
        return out

    fast = renders()
    monkeypatch.setattr(
        DangerousDeletionChecker, "finding", DangerousDeletionChecker.language_finding
    )
    assert fast == renders()
    assert fast[0][0] and not fast[-1][0]
