"""The one request pipeline behind ``repro-analyze``, ``repro-optimize``
and ``repro-served``.

An *op* turns ``(source, config)`` into a serialized payload: a report
for ``analyze``, a parallelization plan for ``optimize``.  :data:`OPS`
holds all the plumbing needs to know about each op — its worker, its
payload and batch-result types (the payload type carries the cache
schema), its cache-key salt, its counter prefix and which results may
be cached — so the CLI, the batch driver and the daemon serve both ops
with the same code.

This module stays light: a one-script ``repro-analyze`` imports it, and
the cache, the batch driver and the optimize advisor load only when
they are used.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from importlib import import_module
from typing import Callable, Optional, Tuple

from ..obs import get_recorder
from .analyzer import analyze
from .resilience import ResourceBudget


@dataclass(frozen=True)
class BatchConfig:
    """The analyzer options one request applies to every file.

    The one list of analyzer options: every field other than the budget
    fields is an :func:`~repro.analysis.analyzer.analyze` keyword of the
    same name, and the fingerprint, the analyzer keywords and the wire
    form (``server.protocol``) are all derived from the fields.  Frozen +
    picklable (crosses the process-pool boundary) and fingerprintable
    (feeds the cache key, so flipping any option invalidates exactly the
    affected entries).
    """

    #: ``None`` models argv as unknown-at-entry (the default);
    #: an int asks for that many symbolic positional parameters
    n_args: Optional[int] = None
    #: concrete argument values (``--args a b c``); wins over ``n_args``
    args: Optional[Tuple[str, ...]] = None
    platform_targets: Optional[Tuple[str, ...]] = None
    include_lint: bool = False
    max_fork: int = 64
    max_loop: int = 2
    prune: bool = True
    races: bool = True
    #: resource limits (``--timeout`` / ``--max-states``), each marked
    #: with the :class:`ResourceBudget` limit it sets.  Deliberately
    #: EXCLUDED from :meth:`fingerprint`: a completed report does not
    #: depend on how generous the budget was, and budget-exhausted
    #: (degraded) reports are never cached — so results computed under
    #: one budget are safely reusable under any other.
    timeout: Optional[float] = field(default=None, metadata={"budget": "deadline"})
    max_states: Optional[int] = field(default=None, metadata={"budget": "max_states"})

    def fingerprint(self) -> str:
        """The cache-key text: every analyzer option, no budget field."""
        options = self.analyze_kwargs()
        return ";".join(f"{name}={value!r}" for name, value in options.items())

    def analyze_kwargs(self) -> dict:
        """The analyzer options: every field but the budget fields."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if "budget" not in f.metadata
        }

    def budget(self) -> Optional[ResourceBudget]:
        """The per-file budget this config implies, or None."""
        limits = {
            f.metadata["budget"]: getattr(self, f.name)
            for f in fields(self)
            if "budget" in f.metadata
        }
        if all(value is None for value in limits.values()):
            return None
        return ResourceBudget(**limits)


# -- workers: module-level, so they pickle across the pool boundary ----------


def analyze_source(
    source: str, config: BatchConfig, budget: Optional[ResourceBudget] = None
) -> dict:
    """The ``analyze`` worker: one script's serialized report.  A given
    ``budget`` replaces the config's (the batch driver's retry)."""
    if budget is None:
        budget = config.budget()
    return analyze(source, budget=budget, **config.analyze_kwargs()).to_dict()


def plan_source(
    source: str, config: BatchConfig, budget: Optional[ResourceBudget] = None
) -> dict:
    """The ``optimize`` worker: one script's serialized plan."""
    from .optimize.advisor import optimize_source

    return optimize_source(source, config, budget)


def _complete(value) -> bool:
    """A degraded result must not be cached: a later run recomputes it."""
    return not value.degraded


def _resolve(path: str):
    module, _, name = path.partition(":")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class Op:
    """One row of the op table (keyed by the protocol op and CLI tool)."""

    #: counter namespace: ``{prefix}.cache.hit``, ``{prefix}.files``, ...
    prefix: str
    #: the payload's key in daemon responses and its field on file results
    wire: str
    #: what the CLI says it does inline when the daemon is unavailable
    verb: str
    #: ``(source, config, budget=None) -> payload dict``
    worker: Callable[..., dict]
    #: ``module:Class`` of the payload (``from_dict``, ``SCHEMA_VERSION``,
    #: ``degraded``, ``unsafe``, ``failure``); imported on first use
    payload_path: str
    #: ``module:Class`` of the batch result (``file_type``, ``render``)
    batch_path: str
    #: fingerprint suffix keeping this op's cache entries apart from the
    #: other op's; ``{schema}`` is the payload's schema version
    salt: str = ""
    #: which loaded payloads may be stored in the cache
    cacheable: Callable[[object], bool] = _complete

    @property
    def payload_type(self):
        return _resolve(self.payload_path)

    @property
    def batch_type(self):
        return _resolve(self.batch_path)

    def cache_key(self, source: str, config: BatchConfig) -> str:
        from .cache import cache_key

        schema = self.payload_type.SCHEMA_VERSION
        return cache_key(source, config.fingerprint() + self.salt.format(schema=schema))

    def lookup(self, cache, source: str, config: BatchConfig) -> Tuple[str, Optional[dict]]:
        """``(key, stored payload or None)``, counting the hit or miss."""
        key = self.cache_key(source, config)
        data = cache.get(key, schema=self.payload_type.SCHEMA_VERSION)
        get_recorder().count(f"{self.prefix}.cache.{'miss' if data is None else 'hit'}")
        return key, data

    def store(self, cache, key: str, data: dict, value) -> None:
        """Cache ``data`` (``value`` is its loaded form) if it may be."""
        if self.cacheable(value) and cache.put(key, data):
            get_recorder().count(f"{self.prefix}.cache.store")


OPS = {
    "analyze": Op(
        prefix="batch",
        wire="report",
        verb="analyzing",
        worker=analyze_source,
        payload_path="repro.analysis.report:Report",
        batch_path="repro.analysis.batch:BatchResult",
    ),
    "optimize": Op(
        prefix="optimize",
        wire="plan",
        verb="planning",
        worker=plan_source,
        payload_path="repro.analysis.optimize.plan:OptimizePlan",
        batch_path="repro.analysis.optimize.advisor:OptimizeBatchResult",
        salt=";optimize-plan-v{schema}",
    ),
}


def run_source(op: str, source: str, config: BatchConfig, cache=None) -> Tuple[dict, bool]:
    """One script through ``op``: ``(payload dict, served from cache)``.

    Without a ``cache`` this is just the worker; with one, a hit skips
    the worker and a cacheable miss is stored."""
    spec = OPS[op]
    if cache is None:
        return spec.worker(source, config), False
    key, data = spec.lookup(cache, source, config)
    if data is not None:
        return data, True
    data = spec.worker(source, config)
    spec.store(cache, key, data, spec.payload_type.from_dict(data))
    return data, False
