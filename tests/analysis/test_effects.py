"""Effect-graph hazard analysis: file-system races over `&`/`wait`."""

from repro.analysis import analyze
from repro.analysis.effects import (
    RaceChecker,
    build_effect_graph,
    display_path,
    find_hazards,
)
from repro.obs import TraceRecorder, use_recorder
from repro.symex import Engine


def run_states(source, n_args=0):
    engine = Engine(checkers=[RaceChecker()])
    return engine.run_script(source, n_args=n_args)


def race_codes(source, n_args=0):
    result = run_states(source, n_args=n_args)
    return sorted({d.code for d in result.diagnostics if d.code.startswith("race-")})


class TestAcceptanceScenario:
    SOURCE = "cmd > f &\ngrep x f\n"

    def test_read_write_race_reported(self):
        result = run_states(self.SOURCE)
        races = result.by_code("race-read-write")
        assert races, [d.render() for d in result.diagnostics]

    def test_race_names_both_commands(self):
        result = run_states(self.SOURCE)
        [race] = result.by_code("race-read-write")
        assert "grep x f" in race.message
        assert "cmd >f" in race.message
        # both positions are carried: the writer at 1:1, the reader at 2:1
        joined = " ".join(race.related)
        assert "1:1" in joined and "2:1" in joined

    def test_missing_wait_reported(self):
        result = run_states(self.SOURCE)
        assert result.has("race-missing-wait")

    def test_wait_silences(self):
        assert race_codes("cmd > f &\nwait\ngrep x f\n") == []

    def test_and_and_sequencing_silences(self):
        assert race_codes("cmd > f && grep x f\n") == []

    def test_distinct_literal_paths_silent(self):
        assert race_codes("cmd > f &\ngrep x g\n") == []


class TestConflictClasses:
    def test_write_write_fg_vs_bg(self):
        assert "race-write-write" in race_codes("cmd > f &\ncmd2 > f\n")

    def test_write_write_two_bg_jobs(self):
        assert "race-write-write" in race_codes("cmd > f &\ncmd2 > f &\n")

    def test_two_bg_jobs_distinct_files_silent(self):
        assert race_codes("cmd > f &\ncmd2 > g &\n") == []

    def test_wait_percent_joins_selectively(self):
        source = (
            "cmd > f &\ncmd2 > g &\nwait %1\ngrep x f\ngrep y g\n"
        )
        result = run_states(source)
        races = result.by_code("race-read-write")
        paths = {  # only the un-waited job's file is racy
            d.message.split("`")[1] for d in races
        }
        assert "g" in " ".join(d.message for d in races)
        assert all("`f`" not in d.message for d in races)

    def test_toctou_check_then_use(self):
        source = "fetch > f &\ntest -f f && cat f\n"
        result = run_states(source)
        toctous = result.by_code("race-toctou")
        assert toctous
        assert "test -f f" in toctous[0].message
        assert "cat f" in toctous[0].message
        assert "fetch >f" in toctous[0].message

    def test_toctou_silent_after_wait(self):
        assert "race-toctou" not in race_codes(
            "fetch > f &\nwait\ntest -f f && cat f\n"
        )

    def test_a_job_that_only_writes_dev_null_modifies_nothing(self):
        """``cat 2>/dev/null &`` touches no file of the working
        directory: no ``race-toctou`` on ``.`` between ``touch a`` and
        ``echo > b`` (seen as the one new hazard that rejected safe
        generator seed 5's groups)."""
        assert race_codes("touch a\ncat 2>/dev/null &\nwait\necho > b\n") == []

    def test_a_directory_and_a_file_in_it_are_different_files(self):
        """``touch a`` checks ``.``; ``echo > b`` uses ``./b``, not ``.``:
        no check-then-use pair, whatever the job writes in ``.``."""
        assert race_codes("touch a\ncp x c &\nwait\necho > b\n") == []
        assert "race-toctou" in race_codes("test -f a\nfetch > a &\nwait\ncat a\n")

    def test_two_jobs_writing_dev_null_do_not_race(self):
        assert race_codes("cmd > /dev/null &\ncmd2 2>/dev/null &\nwait\n") == []
        assert race_codes("cmd < /dev/zero &\ncmd2 > /dev/zero\n") == []

    def test_a_job_that_also_writes_a_file_still_races(self):
        assert "race-write-write" in race_codes("cmd > f 2>/dev/null &\ncmd2 > f\n")


class TestSymbolicAliasing:
    def test_unconstrained_variable_may_alias(self):
        codes = race_codes('cmd > "$1" &\ngrep x f\n', n_args=1)
        assert "race-read-write" in codes

    def test_constrained_disjoint_is_silent(self):
        source = 'case "$1" in *.log) cmd > "$1" & grep x f;; esac\n'
        assert race_codes(source, n_args=1) == []

    def test_constrained_overlapping_flags(self):
        source = 'case "$1" in *.log) cmd > "$1" & grep x a.log;; esac\n'
        assert "race-read-write" in race_codes(source, n_args=1)


class TestEffectGraph:
    def test_nodes_and_windows(self):
        result = run_states("cmd > f &\ngrep x f\n")
        graph = build_effect_graph(result.states[0])
        labels = {node.label() for node in graph.nodes}
        assert "cmd >f" in labels and "grep x f" in labels
        tasks = {node.task for node in graph.nodes}
        assert 0 in tasks and any(t != 0 for t in tasks)
        assert len(graph.open_at_exit) == 1  # never waited for

    def test_wait_closes_window(self):
        result = run_states("cmd > f &\nwait\ngrep x f\n")
        graph = build_effect_graph(result.states[0])
        assert graph.open_at_exit == []
        [window] = graph.windows.values()
        assert window.close_idx is not None

    def test_fork_and_join_edges(self):
        result = run_states("mkdir /srv/d\ncmd > f &\nwait\ngrep x f\n")
        graph = build_effect_graph(result.states[0])
        kinds = {edge.kind for edge in graph.edges}
        assert "fork" in kinds and "join" in kinds

    def test_render_mentions_commands(self):
        result = run_states("cmd > f &\ngrep x f\n")
        text = build_effect_graph(result.states[0]).render()
        assert "cmd >f" in text and "grep x f" in text and "bg#" in text

    def test_a_path_below_another_is_nested(self):
        from repro.analysis.effects.graph import Access, EffectGraph
        from repro.fs import FsOp

        graph = EffectGraph([], {}, [], [])

        def nested(p, q):
            return graph.nested(Access(0, FsOp.STAT, p, None, None, 0),
                                Access(1, FsOp.STAT, q, None, None, 0))

        assert nested("<v-1>", "<v-1>/b") and nested("<v-1>/d/e", "<v-1>/d")
        assert not nested("<v-1>", "<v-1>") and not nested("/a/b", "<v-1>/a")
        # ``..``, a symbolic segment or a glob may name the directory itself
        for below in ("<v-1>/..", "<v-1>/<v3>", "<v-1>/.*"):
            assert not nested("<v-1>", below), below

    def test_display_path_hides_cwd_root(self):
        assert display_path("<v-1>/f") == "f"
        assert display_path("<v-1>") == "."
        assert display_path("/etc/passwd") == "/etc/passwd"

    def test_no_hazards_without_windows(self):
        result = run_states("cmd > f\ngrep x f\n")
        graph = build_effect_graph(result.states[0])
        assert graph.windows == {}
        assert find_hazards(graph) == []


class TestTelemetry:
    def test_counters_recorded(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            report = analyze("cmd > f &\ngrep x f\n")
        assert report.races()
        assert recorder.counter("effects.background_jobs") > 0
        assert recorder.counter("effects.graph_nodes") > 0
        assert recorder.counter("effects.conflicts") > 0
        assert recorder.counter("effects.regions_open_at_exit") > 0

    def test_effects_span_present(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            analyze("cmd > f &\ngrep x f\n")
        names = {span.name for span in recorder.iter_spans()}
        assert "analysis.effects" in names


class TestAnalyzerIntegration:
    def test_report_races_accessor_and_summary(self):
        report = analyze("cmd > f &\ngrep x f\n")
        assert report.races()
        assert "interleaving hazard" in report.render()

    def test_no_races_toggle(self):
        report = analyze("cmd > f &\ngrep x f\n", races=False)
        assert report.races() == []

    def test_related_rendered(self):
        report = analyze("cmd > f &\ngrep x f\n")
        [race] = report.by_code("race-read-write")
        assert race.related
        assert "with:" in race.render()

    def test_clean_script_unaffected(self):
        report = analyze("mkdir -p /srv/app\n")
        assert report.races() == []


class TestRedirectClobbersInput:
    def test_grep_redirect_to_own_input(self):
        # the acceptance case: `>` truncates the input before grep reads it
        report = analyze("grep foo file > file")
        [diag] = report.by_code("redirect-clobbers-input")
        assert diag.always
        assert diag.severity.value == "warning"

    def test_both_locations_reported(self):
        report = analyze("grep foo file > file")
        [diag] = report.by_code("redirect-clobbers-input")
        # main location: the redirect target; related: the reading command
        assert diag.pos is not None and diag.pos.col == 17
        assert diag.related and "grep" in diag.related[0]
        assert "1:1" in diag.related[0]

    def test_append_does_not_clobber(self):
        # `>>` opens without truncating: reading-then-appending is fine
        report = analyze("grep foo file >> file")
        assert not report.has("redirect-clobbers-input")

    def test_distinct_target_is_fine(self):
        report = analyze("grep foo file > other")
        assert not report.has("redirect-clobbers-input")

    def test_input_redirect_then_output_redirect(self):
        # both orderings of `< file > file` are caught
        report = analyze("cat < file > file")
        assert report.has("redirect-clobbers-input")
        report = analyze("cat > file < file")
        assert report.has("redirect-clobbers-input")

    def test_unrelated_commands_not_conflated(self):
        # a different command reading the file earlier is not a clobber
        # by *this* command's redirect (that is the race checkers' job)
        report = analyze("grep foo file\ncmd > file\n", races=False)
        assert not report.has("redirect-clobbers-input")

    def test_sort_in_place_antipattern(self):
        report = analyze("sort file > file")
        assert report.has("redirect-clobbers-input")

    def test_round_trips_through_serialization(self):
        from repro.analysis.report import Report

        report = analyze("grep foo file > file")
        restored = Report.from_dict(report.to_dict())
        assert restored.render() == report.render()


def test_a_command_with_a_substitution_is_cited_at_its_own_line():
    """The commands of a ``$(...)`` carry positions relative to the
    substitution's text; the race is cited where ``cat`` is, not at 1:1."""
    report = analyze("x=1\ny=2\ntouch /tmp/a &\ncat /tmp/a $(basename $0)\n")
    race = [d for d in report.diagnostics if d.code == "race-read-write"]
    assert race and all((d.pos.line, d.pos.col) == (4, 1) for d in race)
    assert "`cat /tmp/a $(basename $0)` (4:1)" in race[0].message
