"""``parse`` accepts a script exactly when ``dash -n`` does.

dash ends a ``$(...)`` where the parse of its body ends (POSIX XCU
§2.6.3), as this parser does; the table in ``tests/golden/regen.py``
holds the constructs a parenthesis count got wrong.  Skipped where
``dash`` is not installed.
"""

import shutil
import subprocess

import pytest

from repro.analysis.corpus import corpus
from repro.shell import ShellSyntaxError, parse, walk
from repro.shell.ast import CmdSubPart, ParamPart, SimpleCommand
from tests.golden.regen import EXAMPLES, SUBSTITUTIONS

pytestmark = pytest.mark.skipif(shutil.which("dash") is None, reason="dash is not installed")

SCRIPTS = [(path.name, path.read_text(encoding="utf-8")) for path in sorted(EXAMPLES.glob("*.sh"))]
SCRIPTS += [(script.name, script.source) for script in corpus()]


def dash_accepts(source: str) -> bool:
    return subprocess.run(["dash", "-n"], input=source, text=True, capture_output=True).returncode == 0


def parsed(source: str):
    try:
        return parse(source)
    except ShellSyntaxError:
        return None


def first_substitution(ast) -> str:
    """The ``source`` of the first ``CmdSubPart`` in a simple command's
    words, assignments or parameter operands."""
    for command in walk(ast, substitutions=False):
        if isinstance(command, SimpleCommand):
            parts = [p for w in command.words + [a.value for a in command.assignments] for p in w.parts]
            while parts:
                part = parts.pop(0)
                if isinstance(part, CmdSubPart):
                    return part.source
                if isinstance(part, ParamPart) and part.arg is not None:
                    parts[:0] = part.arg.parts
    raise AssertionError("no command substitution")


@pytest.mark.parametrize("source,expected", SUBSTITUTIONS, ids=[repr(s) for s, _ in SUBSTITUTIONS])
def test_substitution_ends_where_dash_ends_it(source, expected):
    ast = parsed(source)
    assert (ast is not None) == dash_accepts(source)
    assert (None if ast is None else first_substitution(ast)) == expected


@pytest.mark.parametrize("name,source", SCRIPTS, ids=[name for name, _ in SCRIPTS])
def test_example_and_corpus_scripts(name, source):
    assert (parsed(source) is not None) == dash_accepts(source)
