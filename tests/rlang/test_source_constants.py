"""A language written in the analyzer's source is a process-wide constant
(``Regex.constant``); ``Regex.compile`` is for patterns taken from a
script, which live only as long as the run's table."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def _literal_compiles(tree):
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if func.attr != "compile" or not isinstance(func.value, ast.Name):
            continue
        if func.value.id not in ("Regex", "cls") or not node.args:
            continue
        arg = node.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            yield node.lineno


def test_no_string_literal_is_compiled_per_run():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(SRC)}:{line}" for line in _literal_compiles(tree)]
    assert found == []


def test_the_scan_finds_a_literal():
    tree = ast.parse('Regex.compile(".*")\ncls.compile("a")\nRegex.compile(p)\nre.compile("x")\n')
    assert list(_literal_compiles(tree)) == [1, 2]
