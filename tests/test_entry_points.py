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
    """... and every entry point is a tool: the two name the same tools
    and functions."""
    assert SCRIPTS == {f"repro-{tool}": f"repro.cli:main_{tool}" for tool in cli._TOOLS}


def test_every_entry_point_resolves():
    """... to the function of that name, also where :mod:`repro.cli`
    exports it lazily from :mod:`repro.tools`."""
    for name, target in SCRIPTS.items():
        module, _, attr = target.partition(":")
        function = getattr(importlib.import_module(module), attr)
        assert callable(function) and function.__name__ == attr, name


def test_parser_reads_only_the_scripts_table():
    text = '[project]\nname = "x"\n[project.scripts]\na-b = "m:f"\n[tool.x]\nc = "d"\n'
    assert project_scripts(text) == {"a-b": "m:f"}
