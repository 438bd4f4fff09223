"""The common CLI flags: --version on every entry point (invoked through
``python -m repro.cli``, as installed consoles would), --stats/--trace
availability."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]
TOOLS = ["analyze", "lint", "typeof", "monitor", "verify", "mine"]


def run_cli(*args):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
    )


@pytest.mark.parametrize("tool", TOOLS)
def test_version_flag(tool):
    result = run_cli(tool, "--version")
    assert result.returncode == 0, result.stderr
    assert repro.__version__ in result.stdout
    assert f"repro-{tool}" in result.stdout


@pytest.mark.parametrize("tool", TOOLS)
def test_stats_and_trace_flags_advertised(tool):
    result = run_cli(tool, "--help")
    assert result.returncode == 0, result.stderr
    assert "--stats" in result.stdout
    assert "--trace" in result.stdout
    assert "--version" in result.stdout


def test_stats_names_the_import_phase():
    """Importing the analysis code is most of a one-shot process; --stats
    shows it as a span of its own."""
    result = run_cli("analyze", "--stats", "examples/scripts/steam_updater.sh")
    assert result.returncode == 1, result.stderr
    assert re.search(r"^  cli\.import \.+ n=1 total=", result.stderr, re.M), result.stderr
