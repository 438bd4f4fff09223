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

from importlib import import_module
from typing import Callable, Optional, Tuple

from ..budget import ResourceBudget
from ..diag import Diagnostic, Severity
from ..obs import get_recorder
from ..records import FrozenRecord, set_field
from .analyzer import analyze


class BatchConfig(FrozenRecord):
    """The analyzer options one request applies to every file.

    The one list of analyzer options: every field other than the budget
    fields is an :func:`~repro.analysis.analyzer.analyze` keyword of the
    same name, and the fingerprint, the analyzer keywords and the wire
    form (``server.protocol``) are all derived from :attr:`FIELDS`.
    Frozen + picklable (crosses the process-pool boundary) and
    fingerprintable (feeds the cache key, so flipping any option
    invalidates exactly the affected entries).
    """

    __slots__ = (
        "n_args", "args", "platform_targets", "include_lint", "max_fork", "max_loop",
        "races", "timeout", "max_states",
    )

    #: the field table, in ``__init__`` order: ``(name, default, limit)``.
    #:
    #: - ``n_args``: ``None`` models argv as unknown-at-entry (the
    #:   default); an int asks for that many symbolic positional parameters
    #: - ``args``: concrete argument values (``--args a b c``); wins over
    #:   ``n_args``
    #: - ``timeout`` and ``max_states`` are the resource limits
    #:   (``--timeout`` / ``--max-states``); ``limit`` names the
    #:   :class:`ResourceBudget` keyword each sets, and is None for every
    #:   analyzer option.  The budget fields are deliberately EXCLUDED
    #:   from :meth:`fingerprint`: a completed report does not depend on
    #:   how generous the budget was, and budget-exhausted (degraded)
    #:   reports are never cached — so results computed under one budget
    #:   are safely reusable under any other.
    FIELDS = (
        ("n_args", None, None),
        ("args", None, None),
        ("platform_targets", None, None),
        ("include_lint", False, None),
        ("max_fork", 64, None),
        ("max_loop", 2, None),
        ("races", True, None),
        ("timeout", None, "deadline"),
        ("max_states", None, "max_states"),
    )

    def __init__(
        self,
        n_args: Optional[int] = None,
        args: Optional[Tuple[str, ...]] = None,
        platform_targets: Optional[Tuple[str, ...]] = None,
        include_lint: bool = False,
        max_fork: int = 64,
        max_loop: int = 2,
        races: bool = True,
        timeout: Optional[float] = None,
        max_states: Optional[int] = None,
    ):
        set_field(self, "n_args", n_args)
        set_field(self, "args", args)
        set_field(self, "platform_targets", platform_targets)
        set_field(self, "include_lint", include_lint)
        set_field(self, "max_fork", max_fork)
        set_field(self, "max_loop", max_loop)
        set_field(self, "races", races)
        set_field(self, "timeout", timeout)
        set_field(self, "max_states", max_states)

    def fingerprint(self) -> str:
        """The cache-key text: every analyzer option, no budget field."""
        options = self.analyze_kwargs()
        return ";".join(f"{name}={value!r}" for name, value in options.items())

    def analyze_kwargs(self) -> dict:
        """The analyzer options: every field but the budget fields."""
        return {name: getattr(self, name) for name, _, limit in self.FIELDS if limit is None}

    def budget(self) -> Optional[ResourceBudget]:
        """The per-file budget this config implies, or None."""
        limits = {limit: getattr(self, name) for name, _, limit in self.FIELDS if limit}
        if all(value is None for value in limits.values()):
            return None
        return ResourceBudget(**limits)

    def replace(self, **changes) -> "BatchConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        fields = {name: getattr(self, name) for name in self._fields}
        return BatchConfig(**{**fields, **changes})


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


class Op(FrozenRecord):
    """One row of the op table (keyed by the protocol op and CLI tool).

    - ``prefix``: counter namespace: ``{prefix}.cache.hit``,
      ``{prefix}.files``, ...
    - ``wire``: the payload's key in daemon responses and its field on
      file results
    - ``verb``: what the CLI says it does inline when the daemon is
      unavailable
    - ``worker``: ``(source, config, budget=None) -> payload dict``
    - ``payload_path``: ``module:Class`` of the payload (``from_dict``,
      ``SCHEMA_VERSION``, ``degraded``, ``unsafe``, ``failure``);
      imported on first use
    - ``batch_path``: ``module:Class`` of the batch result
      (``file_type``, ``render``)
    - ``salt``: fingerprint suffix keeping this op's cache entries apart
      from the other op's; ``{schema}`` is the payload's schema version
    - ``cacheable``: which loaded payloads may be stored in the cache
    """

    __slots__ = (
        "prefix", "wire", "verb", "worker", "payload_path", "batch_path", "salt", "cacheable"
    )

    def __init__(
        self,
        prefix: str,
        wire: str,
        verb: str,
        worker: Callable[..., dict],
        payload_path: str,
        batch_path: str,
        salt: str = "",
        cacheable: Callable[[object], bool] = _complete,
    ):
        set_field(self, "prefix", prefix)
        set_field(self, "wire", wire)
        set_field(self, "verb", verb)
        set_field(self, "worker", worker)
        set_field(self, "payload_path", payload_path)
        set_field(self, "batch_path", batch_path)
        set_field(self, "salt", salt)
        set_field(self, "cacheable", cacheable)

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

    def read_failure(self, exc: Exception):
        """The payload standing in for a script that could not be read
        (``exc``: an ``OSError``, or a ``UnicodeDecodeError`` for a
        script that is not UTF-8)."""
        unreadable = Diagnostic(
            code="read-error", message=str(exc), severity=Severity.ERROR, always=True
        )
        return self.payload_type.failure("", unreadable)

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
        # "-r2" since plan stages are typed by rtypes.check_pipeline: a
        # plan cached before that is not served
        salt=";optimize-plan-v{schema}-r2",
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
