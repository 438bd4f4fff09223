"""The import rule of DESIGN §5: lower layers never import upward.

Every module under ``src/repro`` is read with :mod:`ast`, imports nested
inside functions included, so a deferred import cannot hide a layering
violation.  The core layers — the parser, the regular-language and
symbolic-string algebras, the file-system model, the specifications,
the stream types, the symbolic engine, observability and the shared
bottom modules — import nothing from the analysis, server or CLI
layers.  The checker catalogue may reach into the analysis layer only
for the race checker's effect graphs (``repro.analysis.effects``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"

#: packages and modules of the core layers
CORE = ("shell", "rlang", "symstr", "fs", "specs", "rtypes", "symex", "obs",
        "budget.py", "diag.py", "records.py", "lazy.py")
#: what the core layers must not import
UPPER = ("repro.analysis", "repro.server", "repro.cli")


def _module_name(path: Path, root: Path) -> str:
    parts = list(path.relative_to(root).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path, root: Path = SRC):
    """Every module ``path`` (under ``root``) imports, as absolute dotted
    names: for ``from X import y`` both ``X`` and ``X.y`` (``y`` may be a
    module)."""
    package = _module_name(path, root)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module
            yield node.lineno, module
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _within(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def _banned(top: str, name: str) -> bool:
    """Whether a module under ``top`` may not import ``name``."""
    if top not in CORE and top != "checkers":
        return False
    upward = any(_within(name, upper) for upper in UPPER)
    if top == "checkers":
        return upward and not _within(name, "repro.analysis.effects")
    return upward


def _violations():
    found = []
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 100, "the scan found no source tree"
    for path in paths:
        top = path.relative_to(PACKAGE).parts[0]
        for lineno, name in _imports(path):
            if _banned(top, name):
                found.append(f"{path.relative_to(SRC)}:{lineno} imports {name}")
    return sorted(set(found))


def test_core_layers_import_nothing_above_them():
    assert _violations() == []


@pytest.mark.parametrize(
    "relative, expected",
    [
        ("from ..analysis.budget import x", "repro.analysis.budget"),
        ("from .. import analysis", "repro.analysis"),
        ("import repro.server.daemon", "repro.server.daemon"),
    ],
)
def test_the_scan_resolves_nested_relative_and_absolute_imports(tmp_path, relative, expected):
    module = tmp_path / "repro" / "symex" / "probe.py"
    module.parent.mkdir(parents=True)
    module.write_text(f"def f():\n    {relative}\n")
    assert expected in {name for _, name in _imports(module, tmp_path)}


def test_checkers_may_reach_only_the_effect_graphs():
    assert not _banned("checkers", "repro.analysis.effects.RaceChecker")
    assert _banned("checkers", "repro.analysis")
    assert not _banned("checkers", "repro.budget")
    assert _banned("rlang", "repro.analysis.effects")
