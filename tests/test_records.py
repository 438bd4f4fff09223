"""The slotted record classes keep the semantics of the dataclasses they
replaced (see ``repro.records`` and DESIGN.md, "Record classes").

Instances come from parsing and analysing the example scripts and the
labelled corpus, plus a few calls for the records those never build.
Each instance must be slotted, equal to its copy and to its pickle round
trip, and have the ``repr`` a dataclass with the same fields would give.
A frozen one must reject assignment and hash like its copy."""

import copy
import dataclasses
import gc
import pickle
from collections import defaultdict
from pathlib import Path

import pytest

# every module of the analyze path that defines records, including those a
# one-shot run loads only when its script needs them, so that each record
# class is a case of the test below
import repro.analysis.effects.hazards  # noqa: F401
import repro.obs.metrics  # noqa: F401
import repro.rtypes.dataflow  # noqa: F401
import repro.rtypes.infer  # noqa: F401
from repro.analysis.pipeline import BatchConfig
from repro.records import FrozenRecord, Record

EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "scripts"

#: instances checked per class
PER_CLASS = 20

#: syntax the examples and the corpus do not use, and a background job
#: between two commands: the race checker builds an effect graph (and
#: its edges) only for a run that starts one
EXTRA = """if a; then b; elif c; then d; fi
( cd ~/x && echo $((1 + 2)) )
while false; do sleep 1; done
touch /tmp/a
cat /tmp/a > /tmp/b &
rm /tmp/a
wait
"""

#: records with a field that compares by identity, so an unpickled copy
#: is equal only on the other fields
IDENTITY_FIELDS = {"ExecResult": ("states",)}  # SymState has no __eq__


def _leaves(cls):
    subclasses = cls.__subclasses__()
    if not subclasses:
        return [cls]
    return [leaf for sub in subclasses for leaf in _leaves(sub)]


def _drive():
    from repro.analysis import analyze
    from repro.analysis.corpus import corpus
    from repro.obs import TraceRecorder, use_recorder
    from repro.rlang import Regex
    from repro.rlang.syntax import alt_all
    from repro.rtypes.dataflow import ring_invariant
    from repro.rtypes.signatures import identity
    from repro.rtypes.types import StreamType
    from repro.specs.registry import default_registry

    recorder = TraceRecorder()
    with use_recorder(recorder):
        for path in sorted(EXAMPLES.glob("*.sh")):
            analyze(path.read_text(encoding="utf-8"), include_lint=True)
        for script in corpus():
            analyze(script.source, n_args=script.n_args, include_lint=True)
        analyze(EXTRA, include_lint=True)
    recorder.snapshot()
    alt_all()
    # the analyzer's constant languages are built once per process, so
    # an earlier test may have built every pattern the scripts use
    Regex.compile("a{2,3}(b|c)*[x-z]")
    ring_invariant([("cat", identity("cat"))], seed=StreamType.of("[a-z]+"))
    default_registry().get("rm").parse_argv(["rm", "-rf", "x"])
    # the registry builds a spec on its first lookup: build those no
    # script above looked up (``ls`` and ``find`` hold a ``ListsDir``)
    default_registry().build_all()
    BatchConfig()
    BatchConfig(n_args=2, args=("a", "b"), platform_targets=("linux",), timeout=3.0)


@pytest.fixture(scope="module")
def instances():
    found = defaultdict(list)
    classes = _leaves(Record)
    own_inits = {cls: cls.__dict__.get("__init__") for cls in classes}

    def recording(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if len(found[type(self)]) < PER_CLASS:
                found[type(self)].append(self)

        return __init__

    try:
        for cls in classes:
            cls.__init__ = recording(cls.__init__)
        _drive()
    finally:
        for cls, init in own_inits.items():
            if init is None:
                del cls.__init__
            else:
                cls.__init__ = init
    for value in gc.get_objects():  # records built at import: specs, the op table
        if isinstance(value, Record) and len(found[type(value)]) < PER_CLASS:
            found[type(value)].append(value)
    return found


_TWINS = {}


def _dataclass_repr(value):
    cls = type(value)
    if cls not in _TWINS:
        _TWINS[cls] = dataclasses.make_dataclass(cls.__qualname__, cls._fields)
    return repr(_TWINS[cls](*(getattr(value, name) for name in cls._fields)))


def _check(value):
    cls = type(value)
    assert not hasattr(value, "__dict__")
    identity_eq = cls.__eq__ is object.__eq__
    clone = copy.copy(value)
    assert (clone == value) is not identity_eq
    if not identity_eq:  # Mapped holds a local function: it neither compares nor pickles
        restored = pickle.loads(pickle.dumps(value))
        assert type(restored) is cls
        skip = IDENTITY_FIELDS.get(cls.__name__, ())
        fields = [name for name in cls._fields if name not in skip]
        assert [getattr(restored, name) for name in fields] == [
            getattr(value, name) for name in fields
        ]
        if not skip:
            assert restored == value
    if cls.__repr__ is Record.__repr__:
        assert repr(value) == _dataclass_repr(value)
    if isinstance(value, FrozenRecord):
        for name in cls._fields[:1] or ("anything",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
        if identity_eq:
            return
        try:
            expected = hash(value)
        except TypeError:  # a field holds a mutable record, as with the dataclass
            with pytest.raises(TypeError):
                hash(clone)
        else:
            assert hash(clone) == expected
    else:
        with pytest.raises(TypeError):
            hash(value)


@pytest.mark.parametrize("cls", _leaves(Record), ids=lambda cls: cls.__qualname__)
def test_records_keep_dataclass_semantics(cls, instances):
    assert instances[cls], f"nothing built a {cls.__module__}.{cls.__qualname__}"
    for value in instances[cls]:
        _check(value)


#: the cache-key text of the default config; a change invalidates every
#: cache entry, so it must never change by accident
DEFAULT_FINGERPRINT = (
    "n_args=None;args=None;platform_targets=None;include_lint=False;"
    "max_fork=64;max_loop=2;races=True"
)


def _sample_config():
    return BatchConfig(n_args=2, platform_targets=("linux", "macos"), include_lint=True,
                       races=False, timeout=3.0, max_states=50)


def test_batch_config_field_table_is_its_init():
    assert tuple(name for name, _, _ in BatchConfig.FIELDS) == BatchConfig._fields
    default = BatchConfig()
    for name, value, _ in BatchConfig.FIELDS:
        assert getattr(default, name) == value


def test_batch_config_equality_hash_and_pickle():
    config = _sample_config()
    assert config == _sample_config()
    assert hash(config) == hash(_sample_config())
    assert config != BatchConfig()
    assert BatchConfig() != BatchConfig(max_fork=16)
    restored = pickle.loads(pickle.dumps(config))
    assert restored == config and hash(restored) == hash(config)
    with pytest.raises(AttributeError):
        config.n_args = 3
    assert config.replace(races=True, timeout=None) == BatchConfig(
        n_args=2, platform_targets=("linux", "macos"), include_lint=True, max_states=50
    )


def test_batch_config_repr_is_the_dataclass_form():
    assert repr(BatchConfig()) == (
        "BatchConfig(n_args=None, args=None, platform_targets=None, include_lint=False, "
        "max_fork=64, max_loop=2, races=True, timeout=None, max_states=None)"
    )


def test_batch_config_fingerprints_are_pinned():
    assert BatchConfig().fingerprint() == DEFAULT_FINGERPRINT
    # the budget fields stay out of the cache key
    assert _sample_config().fingerprint() == (
        "n_args=2;args=None;platform_targets=('linux', 'macos');include_lint=True;"
        "max_fork=64;max_loop=2;races=False"
    )
