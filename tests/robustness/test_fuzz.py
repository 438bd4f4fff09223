"""Grammar-based fuzzing of the analyzer (pytest wrapper around the
seeded generator; the CI ``fuzz-smoke`` job runs the same harness
standalone for more iterations)."""

import pytest

from repro.analysis import Report, analyze, run_batch
from repro.budget import ResourceBudget

from .fuzz_smoke import check_seed, run, smoke_budget
from .script_gen import generate


class TestGenerator:
    def test_deterministic(self):
        assert generate(42) == generate(42)

    def test_seeds_differ(self):
        scripts = {generate(seed) for seed in range(20)}
        assert len(scripts) > 10

    def test_covers_compound_constructs(self):
        corpus = "\n".join(generate(seed) for seed in range(100))
        for construct in ("if ", "for ", "while ", "case ", " | ", "$("):
            assert construct in corpus, f"generator never produced {construct!r}"

    def test_mutations_present(self):
        # some seeds must exercise the syntax-error path (budgeted: the
        # parse phase, where syntax errors surface, always completes)
        reports = [
            analyze(generate(seed), budget=smoke_budget()) for seed in range(60)
        ]
        assert any(r.has("syntax-error") for r in reports)
        assert any(not r.has("syntax-error") for r in reports)


class TestFuzzInvariant:
    def test_smoke_run_clean(self):
        assert run(iterations=40) == []

    @pytest.mark.parametrize("seed", range(0, 40, 7))
    def test_individual_seeds(self, seed):
        ok, failure, _ = check_seed(seed)
        assert ok, failure

    def test_tiny_budget_never_raises(self):
        # absurdly small budgets exercise every degradation path
        for seed in range(25):
            report = analyze(
                generate(seed),
                budget=ResourceBudget(max_states=3, max_dfa_states=4),
            )
            assert isinstance(report, Report)
            report.render()

    def test_generated_corpus_through_batch(self, tmp_path):
        from repro.analysis import BatchConfig

        corpus = tmp_path / "fuzz-corpus"
        corpus.mkdir()
        for seed in range(15):
            (corpus / f"s{seed:03d}.sh").write_text(generate(seed))
        config = BatchConfig(timeout=0.25, max_states=2_000)
        batch = run_batch([str(corpus)], config=config, jobs=1)
        assert len(batch.results) == 15
        batch.render()
