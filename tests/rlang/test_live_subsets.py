"""Subset construction keeps dead NFA states out of its subsets.

Concatenation and star glue complete DFAs, sink states included, into
an NFA.  Were dead states kept, the subset construction would tell equal
DFA states apart by the dead states they hold."""

from repro.analysis import analyze
from repro.analysis.corpus import corpus
from repro.rlang import Regex, minimise, ops


def test_concatenated_literals_are_already_minimal():
    joined = Regex.literal("ab") + Regex.literal("cd")
    assert joined.dfa.n_states == minimise(joined.dfa).n_states == 6


def test_star_of_literal_stays_near_minimal():
    starred = Regex.literal("ab").star()
    assert starred.dfa.n_states <= minimise(starred.dfa).n_states + 1


def test_dead_case_arm_concatenations_stay_small(monkeypatch):
    # `case $(uname | grep '^zzz') in ...`: with dead states kept, one
    # concatenation here built a 446-state DFA whose minimal size is 6
    sizes = []
    real = ops.concat_dfa

    def spy(a, b):
        result = real(a, b)
        sizes.append(result.n_states)
        return result

    monkeypatch.setattr(ops, "concat_dfa", spy)
    script = next(s for s in corpus() if s.name == "uname-dead-arm")
    analyze(script.source, n_args=script.n_args)
    assert sizes, "the script no longer concatenates languages"
    assert max(sizes) <= 32
