"""``import repro.analysis`` stays light: the batch, cache and optimize
modules load only when one of their exported names is first used.  A
one-script ``repro-analyze`` never loads them, nor the server package
or a process pool."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

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
    import repro.analysis as analysis
    from repro.analysis import batch, cache, optimize

    assert analysis.run_batch is batch.run_batch
    assert analysis.ResultCache is cache.ResultCache
    assert analysis.OptimizePlan is optimize.OptimizePlan


def test_unknown_name_raises_attribute_error():
    import repro.analysis as analysis

    with pytest.raises(AttributeError, match="no_such_name"):
        analysis.no_such_name


ONESHOT = """
import json, sys
from repro.cli import main
code = main(["analyze", "examples/scripts/steam_updater.sh"])
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

#: what the pipeline, batch and server paths need and a one-shot never does
HEAVY = ("repro.analysis.batch", "repro.analysis.cache", "repro.analysis.optimize",
         "repro.server", "concurrent.futures", "multiprocessing")


def test_one_script_analyze_stays_off_the_batch_and_server_paths(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path / "cache"))
    out = subprocess.run([sys.executable, "-c", ONESHOT], env=env, cwd=SRC.parent,
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["code"] == 1  # the Steam bug is found
    loaded = [name for name in result["modules"]
              if any(name == heavy or name.startswith(heavy + ".") for heavy in HEAVY)]
    assert loaded == []
    assert not (tmp_path / "cache").exists()
