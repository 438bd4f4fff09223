"""What a one-shot ``repro-analyze FILE`` loads (DESIGN.md, "What a
one-shot process loads").

The packages export some names lazily (PEP 562): ``import repro.analysis``
stays light, and the batch, cache and optimize modules load only when
one of their names is first used.  A one-script ``repro-analyze`` never
loads them, nor the server package or a process pool, nor any module its
script does not need."""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

#: every package with a PEP 562 ``__getattr__``
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.obs", "repro.rtypes", "repro.checkers",
                 "repro.analysis.effects")

PROBE = """
import sys
import repro.analysis as analysis
lazy = ("repro.analysis.batch", "repro.analysis.cache", "repro.analysis.optimize")
print(sorted(name for name in lazy if name in sys.modules))
missing = [name for name in analysis.__all__ if getattr(analysis, name, None) is None]
print(missing)
"""


def test_import_leaves_batch_cache_optimize_unloaded():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["[]", "[]"]


def test_lazy_names_are_the_submodules_objects():
    """In every lazy package, each exported name is bound at import or is
    a lazy name that resolves to the object its submodule defines."""
    for name in LAZY_PACKAGES:
        package = import_module(name)
        assert set(package._LAZY) <= set(package.__all__), name
        for export in package.__all__:
            value = getattr(package, export)
            if export in package._LAZY:
                submodule = import_module(f"{name}.{package._LAZY[export]}")
                assert value is getattr(submodule, export), f"{name}.{export}"
            else:
                assert export in vars(package), f"{name}.{export}"


def test_unknown_name_raises_attribute_error():
    for name in LAZY_PACKAGES:
        package = import_module(name)
        with pytest.raises(AttributeError, match=f"'{name}' has no attribute 'no_such_name'"):
            package.no_such_name


#: prints the loaded modules and the ``repro`` dataclasses after one
#: ``repro-analyze FILE``, without importing anything itself
ONESHOT = """
import sys
from repro.cli import main
code = main(["analyze", sys.argv[1]])
dataclasses = sorted(
    f"{name}.{value.__qualname__}"
    for name, module in list(sys.modules.items()) if name.startswith("repro")
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == name
    and "__dataclass_fields__" in value.__dict__
)
print(repr({"code": code, "modules": sorted(sys.modules), "dataclasses": dataclasses}))
"""


def _oneshot(script: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path / "cache"))
    out = subprocess.run([sys.executable, "-c", ONESHOT, f"examples/scripts/{script}"],
                         env=env, cwd=SRC.parent, check=True, capture_output=True,
                         text=True).stdout
    return ast.literal_eval(out.splitlines()[-1])


def _loaded(result: dict, prefixes) -> list:
    return [name for name in result["modules"]
            if any(name == prefix or name.startswith(prefix + ".") for prefix in prefixes)]


#: what the pipeline, batch and server paths need and a one-shot never does
HEAVY = ("repro.analysis.batch", "repro.analysis.cache", "repro.analysis.optimize",
         "repro.server", "concurrent.futures", "multiprocessing")

#: standard modules a one-shot does not need: ``dataclasses`` brings
#: ``inspect`` (and ``ast``, ``dis``, ``tokenize``); sha256 is only for
#: crash digests and cache keys; JSON only for plans, traces and baselines
STDLIB = ("dataclasses", "inspect", "json", "hashlib")

#: code no example needs, or only a script with a background job or a
#: typed pipeline
DEFERRED = ("repro.lint", "repro.obs.log", "repro.obs.metrics", "repro.rtypes.infer",
            "repro.rtypes.dataflow", "repro.digraph", "repro.checkers.platform",
            "repro.analysis.effects.graph", "repro.analysis.effects.hazards")


def test_one_script_analyze_stays_off_the_batch_and_server_paths(tmp_path):
    """A one-shot run loads neither the batch and server paths nor any
    module its script does not run."""
    result = _oneshot("steam_updater.sh", tmp_path)
    assert result["code"] == 1  # the Steam bug is found
    assert _loaded(result, HEAVY) == []
    assert not (tmp_path / "cache").exists()
    # each @dataclass exec-compiles its methods at import; see DESIGN.md,
    # "Record classes", for why the one-shot path uses slotted records
    assert result["dataclasses"] == [], (
        "a one-shot repro-analyze imports a @dataclass; make it a "
        "repro.records record (DESIGN.md, 'Record classes')"
    )
    assert _loaded(result, STDLIB) == []
    assert _loaded(result, DEFERRED) == [], (
        "a one-shot repro-analyze imports a module its script does not run; "
        "import it where it is used (DESIGN.md, 'What a one-shot process loads')"
    )


@pytest.mark.parametrize("script, needed", [
    ("background_race.sh", ("repro.analysis.effects.graph", "repro.analysis.effects.hazards")),
    ("stream_pipeline.sh", ("repro.rtypes.infer",)),
])
def test_deferred_modules_load_when_the_script_needs_them(script, needed, tmp_path):
    assert _loaded(_oneshot(script, tmp_path), needed) == list(needed)
