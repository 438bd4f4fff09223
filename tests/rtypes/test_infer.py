"""Unit tests for pipeline checking and dataflow fixpoints."""

from repro.rlang import Regex
from repro.rtypes import (
    DataflowGraph,
    StageIssueKind,
    StreamType,
    check_pipeline,
    filter_sig,
    identity,
    prefix_sig,
    ring_invariant,
    simple,
)


class TestCheckPipeline:
    def test_fig5_dead_stream(self):
        result = check_pipeline(
            [["lsb_release", "-a"], ["grep", "^desc"], ["cut", "-f", "2"]]
        )
        assert result.output_dead
        dead = result.dead_stages()
        assert len(dead) == 1
        assert dead[0].stage == 1
        assert "empty language" in dead[0].message

    def test_fig5_corrected(self):
        result = check_pipeline(
            [["lsb_release", "-a"], ["grep", "^Desc"], ["cut", "-f", "2"]]
        )
        assert not result.output_dead
        assert not result.issues

    def test_hex_pipeline_polymorphic(self):
        result = check_pipeline(
            [["grep", "-oE", "[0-9a-f]+"], ["sed", "s/^/0x/"], ["sort", "-g"]]
        )
        assert not result.issues
        assert result.output.admits("0xdeadbeef")

    def test_hex_pipeline_simple_types_fail(self):
        sigs = [None, simple(".*", "0x.*", label="sed (simple)"), None]
        result = check_pipeline(
            [["grep", "-oE", "[0-9a-f]+"], ["sed", "s/^/0x/"], ["sort", "-g"]],
            signatures=sigs,
        )
        errors = result.errors()
        assert len(errors) == 1
        assert errors[0].stage == 2

    def test_untyped_stage_reported(self):
        result = check_pipeline([["cat"], ["frobnicate"], ["sort"]])
        untyped = result.untyped_stages()
        assert len(untyped) == 1
        assert untyped[0].stage == 1
        assert "monitoring" in untyped[0].message

    def test_dead_propagates_through_transformers(self):
        result = check_pipeline(
            [["lsb_release", "-a"], ["grep", "^desc"], ["cut", "-f", "2"], ["sort"]]
        )
        assert result.output_dead
        # only one issue is reported (at the stage the stream died)
        assert len(result.dead_stages()) == 1

    def test_dead_revived_by_producer(self):
        result = check_pipeline(
            [["lsb_release", "-a"], ["grep", "^desc"], ["wc", "-l"]]
        )
        assert not result.output_dead
        assert result.output.admits("0")

    def test_input_type_respected(self):
        result = check_pipeline(
            [["grep", "x"]], input_type=StreamType.of("[a-z]+")
        )
        assert result.output.admits("axe")
        assert not result.output.admits("X-RAY")

    def test_stage_types_recorded(self):
        result = check_pipeline([["cat"], ["grep", "a"]])
        assert len(result.stage_types) == 2


class TestDataflow:
    def test_acyclic_matches_pipeline(self):
        graph = DataflowGraph()
        graph.add_stage("src", None, seed=StreamType.of("[0-9a-f]+"))
        graph.add_stage("sed", prefix_sig("0x", "sed"))
        graph.connect("src", "sed")
        result = graph.infer()
        assert result.converged
        assert result.type_of("sed").admits("0xff")

    def test_cycle_detection(self):
        graph = DataflowGraph()
        graph.add_stage("a", identity("a"))
        graph.add_stage("b", identity("b"))
        graph.connect("a", "b")
        graph.connect("b", "a")
        assert graph.has_cycle()
        assert graph.cycles()

    def test_ring_identity_converges(self):
        result = ring_invariant(
            [("cat", identity("cat")), ("sort", identity("sort"))],
            seed=StreamType.of("[a-z]+"),
        )
        assert result.converged
        assert result.type_of("sort") == StreamType.of("[a-z]+")

    def test_ring_with_filter_converges(self):
        result = ring_invariant(
            [("cat", identity("cat")), ("grep", filter_sig("[a-z]*x[a-z]*", "grep x"))],
            seed=StreamType.of("[a-z]+"),
        )
        assert result.converged
        inv = result.type_of("grep")
        assert inv.admits("axb")
        assert not inv.admits("ab")

    def test_growing_ring_widens(self):
        # a stage that keeps prefixing grows the language forever; the
        # engine must bail out by widening instead of looping.
        result = ring_invariant(
            [("cat", identity("cat")), ("sed", prefix_sig(">", "sed"))],
            seed=StreamType.of("[a-z]+"),
            max_iterations=8,
        )
        assert not result.converged
        assert result.widened

    def test_merge_point_unions(self):
        graph = DataflowGraph()
        graph.add_stage("a", None, seed=StreamType.of("cat"))
        graph.add_stage("b", None, seed=StreamType.of("dog"))
        graph.add_stage("join", identity("join"))
        graph.connect("a", "join")
        graph.connect("b", "join")
        result = graph.infer()
        joined = result.type_of("join")
        assert joined.admits("cat") and joined.admits("dog")

    def test_bound_violation_surfaces_error(self):
        graph = DataflowGraph()
        graph.add_stage("src", None, seed=StreamType.of("[a-z]+"))
        graph.add_stage("sortg", identity("sort -g", bound=Regex.compile("[0-9]+.*")))
        graph.connect("src", "sortg")
        result = graph.infer()
        assert result.errors

    def test_iterations_bounded_by_ring_length(self):
        stages = [(f"s{i}", identity(f"s{i}")) for i in range(6)]
        result = ring_invariant(stages, seed=StreamType.of("[a-z]+"))
        assert result.converged
        assert result.iterations <= 10
