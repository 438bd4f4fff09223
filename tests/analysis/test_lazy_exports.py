"""What a one-shot ``repro-analyze FILE`` loads (DESIGN.md, "What a
one-shot process loads").

The packages export some names lazily (PEP 562): ``import repro.analysis``
stays light, and the batch, cache and optimize modules load only when
one of their names is first used.  A one-script ``repro-analyze`` never
loads them, nor the server package or a process pool, nor the other
tools, nor any module its script does not need; and the spec registry
builds only the specs the script looks up."""

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


#: prints the loaded modules, the ``repro`` dataclasses, the command
#: names the run looked up in the spec registry and the specs the
#: registry built, after one ``repro-analyze FILE``; it imports only the
#: registry, which the run loads anyway
ONESHOT = """
import sys
from repro.specs.registry import SpecRegistry, default_registry
looked_up = set()
get = SpecRegistry.get
SpecRegistry.get = lambda self, name: looked_up.add(name) or get(self, name)
from repro.cli import main
code = main(["analyze", sys.argv[1]])
dataclasses = sorted(
    f"{name}.{value.__qualname__}"
    for name, module in list(sys.modules.items()) if name.startswith("repro")
    for value in vars(module).values()
    if isinstance(value, type) and value.__module__ == name
    and "__dataclass_fields__" in value.__dict__
)
print(repr({"code": code, "modules": sorted(sys.modules), "dataclasses": dataclasses,
            "looked_up": sorted(looked_up), "built": sorted(default_registry()._specs)}))
"""


def _oneshot(script, tmp_path) -> dict:
    """The probe's findings for an example script's name, or a path."""
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE_DIR=str(tmp_path / "cache"))
    path = script if isinstance(script, Path) else f"examples/scripts/{script}"
    out = subprocess.run([sys.executable, "-c", ONESHOT, str(path)],
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

#: code no example needs, or only a script with a background job, a
#: typed pipeline, a spec with a named stream type or an annotation; and
#: the other tools
DEFERRED = ("repro.lint", "repro.obs.log", "repro.obs.metrics", "repro.rtypes.infer",
            "repro.rtypes.dataflow", "repro.digraph", "repro.checkers.platform",
            "repro.analysis.effects.graph", "repro.analysis.effects.hazards",
            "repro.rtypes.library", "repro.rtypes.signatures", "repro.analysis.annotations",
            "repro.tools")


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
    # the registry built the specs the run looked up, and no other
    from repro.specs import default_registry

    assert result["built"] == [name for name in result["looked_up"]
                               if name in default_registry()]
    assert set(result["built"]) == {"echo", "rm"}
    assert "repro.specs.corpus.streams" not in result["modules"]


@pytest.mark.parametrize("script, needed", [
    ("background_race.sh", ("repro.analysis.effects.graph", "repro.analysis.effects.hazards")),
    ("stream_pipeline.sh", ("repro.rtypes.infer",)),
])
def test_deferred_modules_load_when_the_script_needs_them(script, needed, tmp_path):
    assert _loaded(_oneshot(script, tmp_path), needed) == list(needed)


def test_an_annotation_loads_the_annotation_parser(tmp_path):
    script = tmp_path / "annotated.sh"
    script.write_text('# @var DIR : path\nrm -rf "$DIR"/cache\n', encoding="utf-8")
    result = _oneshot(script, tmp_path)
    assert _loaded(result, ("repro.analysis.annotations", "repro.rtypes.library")) == [
        "repro.analysis.annotations", "repro.rtypes.library"]


def test_lazily_built_specs_equal_the_eagerly_built_ones():
    """Each spec the registry builds on lookup equals the one the corpus
    builds at once, as the registry did before it held a table."""
    from repro.specs import SpecRegistry
    from repro.specs.corpus import FACTORIES, all_specs

    eager = {spec.name: spec for spec in all_specs()}
    lazy = SpecRegistry(FACTORIES)
    assert sorted(eager) == lazy.names()
    for name, spec in eager.items():
        assert lazy.get(name) == spec, name
    assert lazy._factories == {}


def test_threads_looking_up_one_registry_all_get_the_spec():
    """Handler threads may look up a spec while another builds it: each
    gets the one stored spec, never None."""
    import threading

    from repro.specs import SpecRegistry
    from repro.specs.corpus import FACTORIES

    for _ in range(5):
        registry = SpecRegistry(FACTORIES)
        found = []

        def look_up():
            found.append([registry.get(name) for name in FACTORIES])

        threads = [threading.Thread(target=look_up) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(found) == len(threads)  # no thread raised
        for specs in found:
            assert all(spec is registry.get(name) for name, spec in zip(FACTORIES, specs))


def test_names_and_version_salt_build_no_spec():
    """The registry's names, membership and the cache salt read the
    table: they are those of the whole corpus, built or not, and reading
    them builds nothing."""
    from repro.analysis import cache
    from repro.specs import registry
    from repro.specs.corpus import all_specs

    saved, registry._default = registry._default, None
    try:
        default = registry.default_registry()
        salt = cache.version_salt()
        names = sorted(spec.name for spec in all_specs())
        assert default.names() == names and len(default) == len(names)
        assert "rm" in default and "no-such-tool" not in default
        assert default._specs == {}
        default.build_all()
        assert default.names() == names
        assert cache.version_salt() == salt
    finally:
        registry._default = saved


def test_a_registered_spec_overrides_the_table():
    from repro.specs import CommandSpec, SpecRegistry
    from repro.specs.corpus import FACTORIES

    registry = SpecRegistry(FACTORIES)
    mine = CommandSpec(name="rm", summary="mine")
    registry.register(mine)
    assert registry.get("rm") is mine
    with pytest.raises(ValueError):
        registry.register(CommandSpec(name="cat"), replace=False)
    assert registry.get("cat").summary == "concatenate and print files"
