"""Per-layer exclusive (self) time, recorded from outside the analyzer.

:func:`install` replaces the public entry points of each layer named in
:data:`LAYERS` with timing wrappers.  Nothing under ``src/`` is edited:
the wrappers are swapped in at run time, for every alias of a function
across the loaded ``repro.*`` modules (``from .dfa import determinise``
in ``rlang/builder.py`` is such an alias) and on the class for methods.

Self time is computed with a per-thread call stack: a wrapped call's
elapsed time is charged to its own layer minus the time of the wrapped
calls it made, and added to its caller's child time.  Work done by
unwrapped helpers lands in the nearest wrapped caller; work outside
every wrapped call is what the benchmark reports as ``unattributed``.

Per-character hot paths (``CharSet.overlaps`` and friends, ``DFA.step``,
``Regex.__hash__``) are deliberately not wrapped: they run hundreds of
thousands of times per corpus pass and the wrapper would cost more than
the work it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

#: layer -> {module: [function or "Class.method"; "Class.*" = the public
#: methods the class itself defines]}
LAYERS = {
    "shell": {"repro.shell.parser": ["parse"]},
    "expansion": {
        "repro.symex.expansion": [
            "expand_word",
            "expand_words",
            "expand_word_fields",
            "expand_command_sub",
        ],
    },
    "symex": {"repro.symex.engine": ["Engine.run", "Engine.eval"]},
    "rlang": {
        "repro.rlang.dfa": [
            "determinise",
            "minimise",
            "DFA.is_empty",
            "DFA.live_states",
            "DFA.is_finite",
            "DFA.shortest_accepted",
            "DFA.enumerate",
        ],
        "repro.rlang.ops": [
            "product",
            "intersection",
            "union",
            "difference",
            "complement",
            "is_subset",
            "is_disjoint",
            "equivalent",
            "concat_dfa",
            "star",
            "right_quotient",
            "left_quotient",
            "map_chars",
        ],
        "repro.rlang.nfa": ["build_nfa"],
        "repro.rlang.charclass": ["partition"],
        "repro.rlang.syntax": ["parse"],
        "repro.rlang.builder": ["Regex.*"],
    },
    "specs": {
        "repro.specs.registry": ["SpecRegistry.get"],
        "repro.specs.ir": ["CommandSpec.parse_argv", "CommandSpec.applicable_clauses"],
    },
    "fs": {"repro.fs.model": ["FileSystem.*"]},
    "rtypes": {"repro.rtypes.infer": ["check_pipeline"]},
    "checkers": {
        "repro.checkers.deletion": ["DangerousDeletionChecker.*"],
        "repro.checkers.streams": [
            "StreamTypeChecker.*",
            "DeadCaseChecker.*",
            "AlwaysFailsChecker.*",
        ],
        "repro.checkers.idempotence": ["IdempotenceChecker.*"],
        "repro.checkers.platform": ["PlatformChecker.*"],
    },
    "effects": {"repro.analysis.effects.checker": ["RaceChecker.finish"]},
    "report": {
        "repro.analysis.report": ["Report.render", "Report.to_dict", "Report.from_dict"],
    },
    "cache": {"repro.analysis.cache": ["ResultCache.get", "ResultCache.put"]},
    "server": {"repro.server.daemon": ["AnalysisServer.handle_request"]},
    "optimize": {
        "repro.analysis.optimize.advisor": ["optimize_source", "build_plan"],
        "repro.analysis.optimize.plan": [
            "OptimizePlan.render",
            "OptimizePlan.to_dict",
            "OptimizePlan.from_dict",
        ],
    },
}

#: functions whose own self time and call count are kept besides their
#: layer's (keyed "<layer>.<name>")
DETAILED = {"determinise", "minimise", "partition", "product"}

#: the operator methods of ``Regex`` (its algebra); other dunders, such as
#: ``__eq__`` and ``__hash__``, run per dict lookup and are never wrapped
OPERATORS = {"__and__", "__or__", "__sub__", "__invert__", "__add__", "__le__",
             "__ge__", "__lt__"}


def dfa_key(dfa) -> int:
    """A structural key for a DFA: equal automata get equal keys."""
    return hash(
        (
            tuple(dfa.atoms),
            tuple(tuple(row) for row in dfa.delta),
            frozenset(dfa.accepting),
            dfa.start,
        )
    )


class Tracer:
    """Totals of self time and calls per layer, plus the counters the
    benchmark derives ratios from.  ``active`` gates recording, so the
    benchmark's own checking between operations is not charged."""

    def __init__(self, active: bool = True):
        self.active = active
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        #: outcome counters: specs.hits, cache.get_hits, ...
        self.counts = defaultdict(int)
        self.unwrapped = []
        self._local = threading.local()
        self._op_pairs = set()

    # -- operation boundaries ---------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation: product operand pairs are counted as
        distinct within one analysis or request."""
        self._op_pairs = set()

    def snapshot(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, fn, layer: str, name: str):
        detail = f"{layer}.{name}" if name in DETAILED else None
        pre = self._product_pre if name == "product" else None
        post = _POST_HOOKS.get((layer, name))
        perf = time.perf_counter_ns
        self_ns, calls = self.self_ns, self.calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if pre is not None:
                # keep the tracer's own bookkeeping out of every layer
                hook_start = perf()
                pre(args)
                if stack:
                    stack[-1][0] += perf() - hook_start
            frame = [0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                own = elapsed - frame[0]
                self_ns[layer] += own
                calls[layer] += 1
                if detail is not None:
                    self_ns[detail] += own
                    calls[detail] += 1
                if stack:
                    stack[-1][0] += elapsed
            if post is not None:
                post(tracer, result)
            return result

        return wrapper

    def _product_pre(self, args) -> None:
        pair = (dfa_key(args[0]), dfa_key(args[1]))
        if pair not in self._op_pairs:
            self._op_pairs.add(pair)
            self.counts["rlang.product.distinct_pairs"] += 1


def _count_spec_lookup(tracer, spec) -> None:
    tracer.counts["specs.lookups"] += 1
    if spec is not None:
        tracer.counts["specs.hits"] += 1


def _count_cache_get(tracer, data) -> None:
    tracer.counts["cache.gets"] += 1
    if data is not None:
        tracer.counts["cache.get_hits"] += 1


def _count_fs_fork(tracer, _result) -> None:
    tracer.counts["fs.forks"] += 1


_POST_HOOKS = {
    ("specs", "get"): _count_spec_lookup,
    ("cache", "get"): _count_cache_get,
    ("fs", "fork"): _count_fs_fork,
}


def _replace_aliases(original, wrapped) -> None:
    """Rebind every module-level alias of ``original`` in ``repro.*``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapped


def _wrap_method(tracer: Tracer, klass, name: str, layer: str) -> None:
    raw = klass.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(klass, name, classmethod(tracer.wrap(raw.__func__, layer, name)))
    elif isinstance(raw, staticmethod):
        setattr(klass, name, staticmethod(tracer.wrap(raw.__func__, layer, name)))
    elif callable(raw):
        setattr(klass, name, tracer.wrap(raw, layer, name))


def _own_methods(klass):
    """Public methods (and operators) the class itself defines; properties
    such as ``Regex.min_dfa`` are left to the functions they call."""
    for name, raw in klass.__dict__.items():
        if name.startswith("_") and name not in OPERATORS:
            continue
        if isinstance(raw, (classmethod, staticmethod)) or callable(raw):
            yield name


def install(tracer: Tracer, exclude=()) -> Tracer:
    """Wrap every target in :data:`LAYERS`, importing its module unless
    the module name starts with one of ``exclude`` (a CLI process that
    never loads the daemon must not pay for importing it)."""
    for layer, modules in LAYERS.items():
        for mod_name, targets in modules.items():
            if mod_name.startswith(tuple(exclude)) and mod_name not in sys.modules:
                tracer.unwrapped.append(mod_name)
                continue
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                tracer.unwrapped.append(mod_name)
                continue
            for target in targets:
                if "." in target:
                    class_name, method = target.split(".", 1)
                    klass = getattr(module, class_name, None)
                    if klass is None:
                        tracer.unwrapped.append(f"{mod_name}.{target}")
                        continue
                    names = list(_own_methods(klass)) if method == "*" else [method]
                    for name in names:
                        if name in klass.__dict__:
                            _wrap_method(tracer, klass, name, layer)
                        else:
                            tracer.unwrapped.append(f"{mod_name}.{class_name}.{name}")
                    continue
                original = getattr(module, target, None)
                if original is None:
                    tracer.unwrapped.append(f"{mod_name}.{target}")
                    continue
                _replace_aliases(original, tracer.wrap(original, layer, target))
    return tracer


def merge(*snapshots) -> dict:
    """Sum tracer snapshots (or deltas) key by key."""
    total = {"self_ns": defaultdict(int), "calls": defaultdict(int), "counts": defaultdict(int)}
    for snap in snapshots:
        for part in total:
            for key, value in snap.get(part, {}).items():
                total[part][key] += value
    return {part: dict(values) for part, values in total.items()}
