"""The optimization advisor: classification, reorder groups, the
race-detector safety gate, plan serialization, schema, and caching."""

import json
import os
from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.batch import BatchConfig, run_batch
from repro.analysis.cache import ResultCache
from repro.analysis.optimize import (
    BLOCKING,
    COMMUTATIVE,
    PARALLELIZABLE,
    PLAN_SCHEMA_VERSION,
    STATELESS,
    UNKNOWN,
    UNSAFE,
    OptimizePlan,
    build_plan,
    classify_argv,
    optimize_source,
    validate_plan,
)
from repro.analysis.pipeline import OPS

FANOUT = """mkdir -p /srv/out
grep ERROR /var/log/a.log > /srv/out/a.txt
grep ERROR /var/log/b.log > /srv/out/b.txt
grep ERROR /var/log/c.log > /srv/out/c.txt
cat /srv/out/a.txt /srv/out/b.txt /srv/out/c.txt | sort | uniq -c > /srv/out/top.txt
"""


class TestClassifyArgv:
    def test_grep_is_stateless_line_map(self):
        klass, merge, evidence, _ = classify_argv(["grep", "ERROR"])
        assert klass == STATELESS
        assert merge == "cat"
        assert "signature" in evidence

    def test_grep_c_is_commutative_sum(self):
        klass, merge, _, _ = classify_argv(["grep", "-c", "ERROR"])
        assert klass == COMMUTATIVE
        assert merge == "sum"

    def test_sort_is_commutative_with_merge_flags(self):
        klass, merge, _, _ = classify_argv(["sort", "-rn"])
        assert klass == COMMUTATIVE
        assert merge == "sort -m -rn"

    def test_plain_sort_merge(self):
        _, merge, _, _ = classify_argv(["sort"])
        assert merge == "sort -m"

    def test_uniq_is_parallelizable_with_recollapse(self):
        klass, merge, _, _ = classify_argv(["uniq"])
        assert klass == PARALLELIZABLE
        assert merge == "uniq re-collapse"

    def test_uniq_c_is_blocking(self):
        klass, merge, _, _ = classify_argv(["uniq", "-c"])
        assert klass == BLOCKING
        assert merge is None

    def test_wc_is_commutative_sum(self):
        klass, merge, _, _ = classify_argv(["wc", "-l"])
        assert klass == COMMUTATIVE
        assert merge == "sum"

    def test_head_is_blocking(self):
        klass, _, evidence, _ = classify_argv(["head", "-5"])
        assert klass == BLOCKING
        assert "position" in evidence

    def test_tac_is_parallelizable(self):
        klass, merge, _, _ = classify_argv(["tac"])
        assert klass == PARALLELIZABLE
        assert merge == "tac-concat"

    def test_sed_substitution_is_stateless(self):
        klass, merge, _, _ = classify_argv(["sed", "s/foo/bar/g"])
        assert klass == STATELESS
        assert merge == "cat"

    def test_cut_is_stateless(self):
        klass, _, _, _ = classify_argv(["cut", "-d:", "-f1"])
        assert klass == STATELESS

    def test_state_builtin_is_unsafe(self):
        klass, _, evidence, _ = classify_argv(["cd", "/tmp"])
        assert klass == UNSAFE
        assert "shell state" in evidence

    def test_rm_is_unsafe_via_spec(self):
        klass, _, evidence, _ = classify_argv(["rm", "-f", "/tmp/x"])
        assert klass == UNSAFE
        assert "spec" in evidence

    def test_producer_role(self):
        klass, _, _, role = classify_argv(["seq", "1", "10"])
        assert klass == BLOCKING
        assert role == "source"

    def test_bare_cat_is_identity(self):
        klass, merge, _, _ = classify_argv(["cat"])
        assert klass == STATELESS
        assert merge == "cat"

    def test_cat_with_operands_is_a_source(self):
        klass, _, _, role = classify_argv(["cat", "/a", "/b"])
        assert klass == BLOCKING
        assert role == "source"

    def test_dynamic_argv_is_unknown(self):
        klass, _, _, _ = classify_argv(None)
        assert klass == UNKNOWN


class TestPipelinePlan:
    def test_stage_classes_and_splits(self):
        plan = build_plan(
            "grep err /l | sed 's/x/y/' | cut -f1 | sort | head -3\n"
        )
        assert len(plan.pipelines) == 1
        stages = plan.pipelines[0].stages
        assert [s.klass for s in stages] == [
            STATELESS, STATELESS, STATELESS, COMMUTATIVE, BLOCKING,
        ]
        splits = plan.pipelines[0].splits
        # one maximal stateless run (stages 0-2, merge cat), then sort alone
        assert (splits[0].begin, splits[0].end, splits[0].merge) == (0, 2, "cat")
        assert (splits[1].begin, splits[1].end) == (3, 3)
        assert splits[1].merge == "sort -m"

    def test_stream_types_annotated(self):
        plan = build_plan("seq 1 5 | sort -n | head -2\n")
        stages = plan.pipelines[0].stages
        assert stages[0].stream_type is not None  # seq produces numbers

    def test_write_redirect_stage_is_unsafe(self):
        plan = build_plan("grep a /l | sort > /out\n")
        assert plan.pipelines[0].stages[-1].klass == UNSAFE

    def test_all_blocking_pipeline_notes_no_split(self):
        plan = build_plan("seq 1 3 | head -1\n")
        assert "no splittable stage found" in plan.pipelines[0].notes


class TestReorderGroups:
    def test_independent_fanout_grouped_and_verified(self):
        plan = build_plan(FANOUT)
        assert len(plan.groups) == 1
        group = plan.groups[0]
        assert group.commands == [1, 2, 3]
        assert group.verified
        assert "zero new race hazards" in group.justification
        assert plan.rewritten_script is not None
        assert plan.rewritten_script.count(" &\n") == 3
        assert "wait" in plan.rewritten_script

    def test_dependent_commands_not_grouped(self):
        plan = build_plan(
            "grep a /in > /tmp/mid\ngrep b /tmp/mid > /tmp/out\n"
        )
        assert plan.groups == []
        assert plan.rewritten_script is None

    def test_assignments_are_pinned(self):
        plan = build_plan(
            "OUT=/tmp/o1\nDST=/tmp/o2\ngrep a /x > /tmp/a\ngrep b /y > /tmp/b\n"
        )
        pinned = {entry["command"] for entry in plan.pinned}
        assert 0 in pinned and 1 in pinned
        assert all("subshell" in entry["reason"] for entry in plan.pinned)
        # the two greps are still independent and groupable
        assert any(group.commands == [2, 3] for group in plan.groups)

    def test_state_builtins_are_pinned(self):
        plan = build_plan("cd /srv\ngrep a /x > /a\ngrep b /y > /b\n")
        assert any(
            "state builtin" in entry["reason"] for entry in plan.pinned
        )

    def test_background_command_not_double_backgrounded(self):
        plan = build_plan("grep a /x > /a &\ngrep b /y > /b\ngrep c /z > /c\n")
        if plan.rewritten_script is not None:
            assert "& &" not in plan.rewritten_script
            assert "&  &" not in plan.rewritten_script

    def test_schedule_matches_dependencies(self):
        plan = build_plan(FANOUT)
        assert plan.schedule == [[0], [1, 2, 3], [4]]
        # every dependence edge crosses generations forward
        position = {
            index: gen_index
            for gen_index, generation in enumerate(plan.schedule)
            for index in generation
        }
        for dep in plan.dependencies:
            assert position[dep["src"]] < position[dep["dst"]]


class TestSafetyGate:
    """The acceptance-criteria property: re-analyzing the advisor's
    rewritten script with --races yields zero hazards beyond the
    original's — the advisor never introduces a hazard it can detect."""

    CORPUS = [
        FANOUT,
        "grep a /x > /tmp/a\ngrep b /y > /tmp/b\n",
        "mkdir -p /d\ntouch /d/x\ntouch /d/y\nrm /d/x\n",
        "OUT=/tmp/q\ngrep a /x > /tmp/a\ngrep b /y > $OUT\n",
        "seq 1 5 > /tmp/n1\nseq 6 9 > /tmp/n2\ncat /tmp/n1 /tmp/n2 | wc -l > /tmp/c\n",
    ]

    @pytest.mark.parametrize("index", range(len(CORPUS)))
    def test_no_new_hazards(self, index):
        from collections import Counter

        source = self.CORPUS[index]
        plan = build_plan(source)
        if plan.rewritten_script is None:
            pytest.skip("no rewrite suggested for this script")
        baseline = Counter(
            (d.code, d.message) for d in analyze(source, races=True).races()
        )
        rewritten = Counter(
            (d.code, d.message)
            for d in analyze(plan.rewritten_script, races=True).races()
        )
        assert not (rewritten - baseline), (
            f"advisor introduced hazards: {rewritten - baseline}"
        )

    def test_examples_corpus_no_new_hazards(self):
        from collections import Counter

        root = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "scripts"
        )
        checked = 0
        for name in sorted(os.listdir(root)):
            if not name.endswith(".sh"):
                continue
            with open(os.path.join(root, name), "r", encoding="utf-8") as fh:
                source = fh.read()
            plan = OptimizePlan.from_dict(optimize_source(source))
            if plan.rewritten_script is None:
                continue
            checked += 1
            baseline = Counter(
                (d.code, d.message)
                for d in analyze(source, races=True).races()
            )
            rewritten = Counter(
                (d.code, d.message)
                for d in analyze(plan.rewritten_script, races=True).races()
            )
            assert not (rewritten - baseline), name
        assert checked >= 1  # log_fanout.sh must produce a rewrite


class TestPlanSerialization:
    def test_round_trip_identity(self):
        plan = build_plan(FANOUT)
        first = plan.to_dict()
        second = OptimizePlan.from_dict(first).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_schema_valid(self):
        errors = validate_plan(build_plan(FANOUT).to_dict())
        assert errors == []

    def test_schema_rejects_bad_class(self):
        data = build_plan(FANOUT).to_dict()
        data["pipelines"][0]["stages"][0]["class"] = "warp-speed"
        errors = validate_plan(data)
        assert any("warp-speed" in error for error in errors)

    def test_schema_rejects_missing_required(self):
        data = build_plan(FANOUT).to_dict()
        del data["schedule"]
        errors = validate_plan(data)
        assert any("schedule" in error for error in errors)

    def test_plans_are_deterministic_across_runs(self):
        first = json.dumps(optimize_source(FANOUT), sort_keys=True)
        second = json.dumps(optimize_source(FANOUT), sort_keys=True)
        assert first == second

    def test_render_is_deterministic(self):
        assert build_plan(FANOUT).render() == build_plan(FANOUT).render()

    def test_dot_export(self):
        dot = build_plan(FANOUT).to_dot()
        assert dot.startswith("digraph")
        assert "palegreen" in dot  # the verified group is highlighted
        assert "c1 -> c4" in dot

    def test_optimize_source_never_raises(self):
        data = optimize_source("if then fi ((((")
        assert data["degraded"]
        assert "internal error" in data["degraded_reason"]


class TestPlanDeterminism:
    def test_plan_independent_of_process_history(self):
        # fs node ids come from a process-global counter; a plan must not
        # depend on how many analyses ran before it in the same process
        scripts = Path(__file__).resolve().parents[2] / "examples" / "scripts"
        source = (scripts / "fragment_pipeline.sh").read_text()
        cold = build_plan(source).render()
        for _ in range(3):
            for path in sorted(scripts.glob("*.sh")):
                analyze(path.read_text())
        assert build_plan(source).render() == cold


class TestBudget:
    def test_exhausted_budget_degrades_plan(self):
        config = BatchConfig(max_states=1)
        plan = build_plan(FANOUT, config)
        assert plan.degraded
        assert plan.degraded_reason

    def test_degraded_plan_not_cached(self, tmp_path):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "a.sh").write_text(FANOUT)
        cache = ResultCache(str(tmp_path / "cache"))
        config = BatchConfig(max_states=1)
        run_batch([str(scripts)], config=config, jobs=1, cache=cache, op="optimize")
        key = OPS["optimize"].cache_key(FANOUT, config)
        assert cache.get(key, schema=PLAN_SCHEMA_VERSION) is None


class TestPlanCache:
    def test_warm_batch_is_byte_identical_and_cached(self, tmp_path):
        scripts = tmp_path / "scripts"
        scripts.mkdir()
        (scripts / "a.sh").write_text(FANOUT)
        (scripts / "b.sh").write_text("grep a /x > /a\ngrep b /y > /b\n")
        cache = ResultCache(str(tmp_path / "cache"))
        cold = run_batch([str(scripts)], jobs=1, cache=cache, op="optimize")
        warm = run_batch([str(scripts)], jobs=1, cache=cache, op="optimize")
        assert cold.misses == 2 and cold.hits == 0
        assert warm.hits == 2 and warm.misses == 0
        assert warm.render() == cold.render()

    def test_plan_key_distinct_from_report_key(self):
        from repro.analysis.cache import cache_key

        config = BatchConfig()
        assert OPS["optimize"].cache_key(FANOUT, config) != cache_key(
            FANOUT, config.fingerprint()
        )

    def test_stale_plan_schema_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        key = OPS["optimize"].cache_key(FANOUT, BatchConfig())
        cache.put(key, optimize_source(FANOUT))
        assert cache.get(key, schema=PLAN_SCHEMA_VERSION) is not None
        # entries written by an older plan schema must read as misses
        assert cache.get(key, schema=PLAN_SCHEMA_VERSION + 1) is None


class TestObservability:
    def test_optimize_counters_and_spans(self):
        from repro.obs import TraceRecorder, use_recorder

        recorder = TraceRecorder()
        with use_recorder(recorder):
            build_plan(FANOUT)
        assert recorder.counter("optimize.runs") == 1
        assert recorder.counter("optimize.pipelines") == 1
        assert recorder.counter("optimize.cross_checks") >= 1
        assert recorder.counter("optimize.groups") == 1
