"""Every ``python -m repro.cli`` tool is also installed as ``repro-<tool>``.

``[project.scripts]`` is read with a small line parser rather than
``tomllib``, which Python 3.10 lacks."""

import importlib
import re
from pathlib import Path

from repro import cli

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def project_scripts(text):
    """The ``name = "module:function"`` entries of ``[project.scripts]``."""
    scripts = {}
    in_table = False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            in_table = line == "[project.scripts]"
            continue
        match = re.fullmatch(r'([\w.-]+)\s*=\s*"([^"]+)"', line)
        if in_table and match:
            scripts[match.group(1)] = match.group(2)
    return scripts


SCRIPTS = project_scripts(PYPROJECT.read_text(encoding="utf-8"))


def test_every_tool_has_an_entry_point():
    for tool, function in cli._TOOLS.items():
        assert SCRIPTS.get(f"repro-{tool}") == f"repro.cli:{function.__name__}", tool


def test_every_entry_point_resolves():
    for name, target in SCRIPTS.items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name


def test_parser_reads_only_the_scripts_table():
    text = '[project]\nname = "x"\n[project.scripts]\na-b = "m:f"\n[tool.x]\nc = "d"\n'
    assert project_scripts(text) == {"a-b": "m:f"}
