"""Unit tests for the CLI entry points."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def script_file(tmp_path):
    def write(content):
        path = tmp_path / "script.sh"
        path.write_text(content)
        return str(path)

    return write


def run_tool(main, argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCli:
    def test_unsafe_script_exits_nonzero(self, script_file, capsys):
        path = script_file('rm -rf /\n')
        code, out, _ = run_tool(cli.main_analyze, [path], capsys)
        assert code == 1
        assert "dangerous-deletion" in out

    def test_safe_script_exits_zero(self, script_file, capsys):
        path = script_file("echo hello\n")
        code, out, _ = run_tool(cli.main_analyze, [path], capsys)
        assert code == 0

    def test_errors_only_filter(self, script_file, capsys):
        path = script_file("mkdir /opt/x\n")
        code, out, _ = run_tool(cli.main_analyze, [path, "--errors-only"], capsys)
        assert "idempotence" not in out

    def test_platforms_flag(self, script_file, capsys):
        path = script_file("sed -i s/a/b/ f\n")
        code, out, _ = run_tool(
            cli.main_analyze, [path, "--platforms", "macos"], capsys
        )
        assert "platform-flag" in out

    def test_lint_merge(self, script_file, capsys):
        path = script_file("rm $X\n")
        code, out, _ = run_tool(cli.main_analyze, [path, "--lint"], capsys)
        assert "SC2086" in out

    def test_races_on_by_default(self, script_file, capsys):
        path = script_file("cmd > f &\ngrep x f\n")
        code, out, _ = run_tool(cli.main_analyze, [path], capsys)
        assert "race-read-write" in out
        assert "race-missing-wait" in out

    def test_no_races_toggle(self, script_file, capsys):
        path = script_file("cmd > f &\ngrep x f\n")
        code, out, _ = run_tool(cli.main_analyze, [path, "--no-races"], capsys)
        assert "race-" not in out


class TestLintCli:
    def test_reports_codes(self, script_file, capsys):
        path = script_file('rm -rf "$D"/*\n')
        code, out, _ = run_tool(cli.main_lint, [path], capsys)
        assert code == 1
        assert "SC2115" in out

    def test_clean(self, script_file, capsys):
        path = script_file('printf %s hi\n')
        code, out, _ = run_tool(cli.main_lint, [path], capsys)
        assert code == 0


class TestTypeofCli:
    def test_named_type(self, capsys):
        code, out, _ = run_tool(cli.main_typeof, ["url"], capsys)
        assert code == 0
        assert "://" in out

    def test_command_signature(self, capsys):
        code, out, _ = run_tool(cli.main_typeof, ["sed", "s/^/0x/"], capsys)
        assert code == 0
        assert "∀α" in out and "0xα" in out

    def test_unknown(self, capsys):
        code, out, err = run_tool(cli.main_typeof, ["frobnicate"], capsys)
        assert code == 1
        assert "known named types" in err


class TestMineCli:
    def test_mine_rm(self, capsys):
        code, out, _ = run_tool(cli.main_mine, ["rm"], capsys)
        assert code == 0
        assert "exit 0" in out and "delete" in out


class TestVerifyCli:
    def test_reject(self, script_file, capsys):
        path = script_file("rm -rf /home/user/mine/x\n")
        code, out, _ = run_tool(
            cli.main_verify, [path, "--no-RW", "~/mine"], capsys
        )
        assert code == 1
        assert "REJECT" in out

    def test_allow(self, script_file, capsys):
        path = script_file("mkdir -p /opt/sw\n")
        code, out, _ = run_tool(
            cli.main_verify, [path, "--no-RW", "~/mine"], capsys
        )
        assert code == 0
        assert "ALLOW" in out


class TestDispatcher:
    def test_usage_on_unknown(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_dispatch(self, script_file, capsys):
        path = script_file("echo hi\n")
        assert cli.main(["analyze", path]) == 0


class TestSingleFileCacheRule:
    """A single script touches the result cache only when --cache-dir is
    given; --no-cache overrides it.  Both ops follow the same rule."""

    TOOLS = [(cli.main_analyze, "batch"), (cli.main_optimize, "optimize")]

    @pytest.mark.parametrize("main, prefix", TOOLS)
    def test_no_flags_write_nothing(self, main, prefix, script_file, tmp_path,
                                    monkeypatch, capsys):
        default_dir = tmp_path / "default-cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(default_dir))
        path = script_file("echo hello\n")
        _, _, err = run_tool(main, [path, "--stats"], capsys)
        assert not default_dir.exists()
        assert f"{prefix}.cache" not in err

    @pytest.mark.parametrize("main, prefix", TOOLS)
    def test_cache_dir_serves_the_second_run(self, main, prefix, script_file,
                                             tmp_path, capsys):
        path = script_file("mkdir /opt/x\nrm -rf /opt/x\n")
        argv = [path, "--cache-dir", str(tmp_path / "cache"), "--stats"]
        cold_code, cold, cold_err = run_tool(main, argv, capsys)
        warm_code, warm, warm_err = run_tool(main, argv, capsys)
        assert f"{prefix}.cache.miss" in cold_err
        assert f"{prefix}.cache.hit" in warm_err
        assert f"{prefix}.cache.miss" not in warm_err
        assert (warm_code, warm) == (cold_code, cold)

    @pytest.mark.parametrize("main, prefix", TOOLS)
    def test_no_cache_overrides_cache_dir(self, main, prefix, script_file,
                                          tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        path = script_file("echo hello\n")
        _, _, err = run_tool(main, [path, "--cache-dir", str(cache_dir),
                                    "--no-cache", "--stats"], capsys)
        assert not cache_dir.exists()
        assert f"{prefix}.cache" not in err


class TestNonUtf8Script:
    """A script that is not UTF-8 gets the batch driver's read-error
    result in single-file mode too, with the exit status batch mode gives
    it, instead of a traceback."""

    TOOLS = [(cli.main_analyze, 1), (cli.main_optimize, 3)]

    @pytest.fixture
    def latin1(self, tmp_path):
        path = tmp_path / "only" / "latin1.sh"
        path.parent.mkdir()
        path.write_bytes(b"\xff rm -rf /\n")
        return path

    @pytest.mark.parametrize("main, status", TOOLS)
    def test_single_file_is_a_read_error(self, main, status, latin1, capsys):
        code, out, err = run_tool(main, [str(latin1)], capsys)
        assert code == status
        assert "can't decode byte 0xff" in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("main, status", TOOLS)
    def test_single_file_matches_batch_mode(self, main, status, latin1, capsys):
        single = run_tool(main, [str(latin1)], capsys)
        batch = run_tool(main, [str(latin1.parent), "--no-cache", "--jobs", "1"], capsys)
        assert single[0] == batch[0] == status
        assert f"== {latin1} ==\n{single[1]}" in batch[1]

    @pytest.mark.parametrize("main, status", TOOLS)
    def test_batch_still_analyzes_the_other_files(self, main, status, latin1, capsys):
        (latin1.parent / "ok.sh").write_text("echo hi\n")
        code, out, _ = run_tool(main, [str(latin1.parent), "--no-cache", "--jobs", "1"],
                                capsys)
        assert code == status
        assert f"== {latin1.parent / 'ok.sh'} ==" in out
        assert "2 file(s)" in out


class TestClosedPipe:
    """A reader that stops after the first line (``repro-analyze s.sh |
    head -1``) closes the pipe while the tool is still writing: the tool
    ends without a traceback, with the status its verdict implies."""

    @pytest.fixture(scope="class")
    def many_deletions(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("pipe") / "many_deletions.sh"
        path.write_text("".join(f'rm -rf "$D{i}"/*\n' for i in range(800)))
        return str(path)

    @pytest.mark.parametrize("tool", ["analyze", "lint"])
    def test_first_line_then_close(self, tool, many_deletions):
        command = [sys.executable, "-m", "repro.cli", tool, many_deletions]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        full = subprocess.run(command, env=env, capture_output=True, timeout=120)
        # more than the pipe and the reader's buffer hold, so the tool is
        # still writing when the reader goes
        assert len(full.stdout) > 65536 + 16384
        child = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        first = child.stdout.readline()
        child.stdout.close()
        err = child.stderr.read()
        status = child.wait(120)
        child.stderr.close()
        assert first == full.stdout.splitlines(keepends=True)[0]
        assert status == full.returncode == 1
        assert err == full.stderr == b""
