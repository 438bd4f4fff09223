"""Corpus-scale batch driver and the process-pool fan-out.

The paper's ahead-of-time framing (§2, §6) amortizes analysis across
whole script corpora; per-file independence makes that embarrassingly
parallel.  :func:`run_batch` accepts files, directories, and glob
patterns, serves any op of :data:`~repro.analysis.pipeline.OPS`
(analysis reports or optimization plans), fans the work out to a
process pool, and consults the persistent :mod:`~repro.analysis.cache`
so unchanged files cost one hash + one read on re-analysis instead of a
symbolic execution.

Crash containment lives in :func:`fan_out`, which the differential
campaign shares: each item is submitted to the pool as its own future,
so one item killing its worker (OOM, segfault in an extension,
``os._exit``) cannot take the rest of the batch with it.  An item whose
worker died is retried once inline under a *tightened*
:class:`~repro.budget.ResourceBudget`; if the retry also
fails, the item is quarantined — a file still gets a renderable result
carrying an ``analysis-quarantined`` diagnostic.  Degraded and
quarantined results are never written to the result cache, so a later
run recomputes those files from scratch.

Counters (visible via ``--stats``) are named by the op's prefix —
``batch`` for analysis, ``optimize`` for plans: ``batch.files``,
``batch.cache.hit`` / ``batch.cache.miss`` / ``batch.cache.store``,
``batch.worker_failures`` / ``batch.retries`` / ``batch.quarantined``;
per-file seconds feed the ``batch.file_seconds`` histogram so the stats
table shows aggregate CPU time next to wall time (their ratio is the
realized parallel speedup).
"""

from __future__ import annotations

import glob as glob_mod
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterator, List, Optional, Sequence, Tuple

from ..budget import ResourceBudget
from ..diag import Severity, quarantine_diagnostic
from ..obs import get_recorder
from .cache import ResultCache
from .pipeline import OPS, BatchConfig
from .report import Report

#: extensions treated as shell scripts when scanning a directory
SCRIPT_EXTENSIONS = (".sh", ".bash")


@dataclass
class FileResult:
    """One analyzed file: its report plus how the result was obtained."""

    path: str
    report: Report
    cached: bool = False
    seconds: float = 0.0
    #: the worker died and the bounded inline retry failed too; the
    #: report is a stub carrying an ``analysis-quarantined`` diagnostic
    quarantined: bool = False


@dataclass
class BatchResult:
    """Per-file results (in input order) plus corpus-level accounting."""

    results: List[FileResult] = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    file_type: ClassVar[type] = FileResult

    @property
    def unsafe(self) -> bool:
        return any(r.report.unsafe for r in self.results)

    @property
    def degraded(self) -> bool:
        """At least one file's analysis did not fully complete."""
        return any(r.quarantined or r.report.degraded for r in self.results)

    def render(self, min_severity: Severity = Severity.INFO) -> str:
        """Aggregated multi-file output: per-file headers plus a corpus
        summary line.  Deliberately free of cache/timing details so a
        fully-warm rerun is byte-identical to the cold run."""
        blocks = []
        errors = warnings = infos = flagged = degraded = 0
        for result in self.results:
            report = result.report
            errors += len(report.errors())
            warnings += len(report.warnings())
            infos += len(report.infos())
            if not report.ok:
                flagged += 1
            if result.quarantined or report.degraded:
                degraded += 1
            blocks.append(f"== {result.path} ==\n{report.render(min_severity)}")
        summary = (
            f"{len(self.results)} file(s) analyzed: {errors} error(s), "
            f"{warnings} warning(s), {infos} note(s); {flagged} file(s) flagged"
        )
        if degraded:
            summary += f"; {degraded} file(s) degraded"
        blocks.append(summary)
        return "\n\n".join(blocks)


def discover(inputs: Sequence[str]) -> List[str]:
    """Expand files, directories, and glob patterns into a sorted,
    deduplicated list of script paths.

    Explicit file arguments are always included; directories are walked
    recursively for ``*.sh`` / ``*.bash``; anything else is tried as a
    glob pattern.
    """
    found: List[str] = []
    for item in inputs:
        if os.path.isdir(item):
            for dirpath, dirnames, filenames in os.walk(item):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(SCRIPT_EXTENSIONS):
                        found.append(os.path.join(dirpath, name))
        elif os.path.isfile(item):
            found.append(item)
        else:
            found.extend(
                path
                for path in glob_mod.glob(item, recursive=True)
                if os.path.isfile(path)
            )
    seen = set()
    unique: List[str] = []
    for path in sorted(found):
        normal = os.path.normpath(path)
        if normal not in seen:
            seen.add(normal)
            unique.append(normal)
    return unique


def run_batch(
    inputs: Sequence[str],
    config: Optional[BatchConfig] = None,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    pool=None,
    op: str = "analyze",
):
    """Run ``op`` over every script reachable from ``inputs``; the result
    is the op's batch type (a :class:`BatchResult` for ``analyze``).

    ``jobs=None`` means ``os.cpu_count()``; ``cache=None`` disables
    caching.  ``pool`` is an optional *persistent* process-pool executor
    (the analysis server's): it is used instead of a per-batch pool and
    left open for the caller to reuse and eventually shut down.  Payloads
    always round-trip through ``from_dict(...to_dict())`` — the pool and
    the cache both traffic in the serialized form — so cold, warm,
    parallel, and serial runs render identically.
    """
    spec = OPS[op]
    config = config if config is not None else BatchConfig()
    if jobs is None:
        jobs = os.cpu_count() or 1
    rec = get_recorder()
    payload, batch = spec.payload_type, spec.batch_type()

    slots: list = []
    pending: List[Tuple[int, str, str, Optional[str]]] = []  # (slot, path, source, key)

    with rec.span("batch.run"):
        for path in discover(inputs):
            rec.count(f"{spec.prefix}.files")
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    source = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                slots.append(batch.file_type(path, spec.read_failure(exc)))
                continue
            key = None
            if cache is not None:
                key, data = spec.lookup(cache, source, config)
                if data is not None:
                    slots.append(batch.file_type(path, payload.from_dict(data), True))
                    continue
            slots.append(None)
            pending.append((len(slots) - 1, path, source, key))

        def quarantine(args, cause, retry):
            return payload.failure(args[0], quarantine_diagnostic(cause, retry)).to_dict()

        outcomes = fan_out(
            spec.worker,
            [(source, config) for _, _, source, _ in pending],
            jobs,
            prefix=spec.prefix,
            budget=config.budget(),
            quarantine=quarantine,
            pool=pool,
        )
        for (slot, path, _, key), (data, seconds, quarantined) in zip(pending, outcomes):
            value = payload.from_dict(data)
            # incomplete results must not poison the cache: a cold rerun
            # has to recompute them from scratch
            if cache is not None and not quarantined:
                spec.store(cache, key, data, value)
            rec.observe(f"{spec.prefix}.file_seconds", seconds)
            slots[slot] = batch.file_type(path, value, False, seconds, quarantined)

    batch.results = slots
    batch.hits = sum(1 for result in slots if result.cached)
    batch.misses = len(pending)
    return batch


# ---------------------------------------------------------------------------
# the process-pool fan-out
# ---------------------------------------------------------------------------


def _pool_worker(item: Tuple) -> Tuple[object, float, Optional[dict]]:
    """Pool body: ``work(*args)`` for one item.  When the parent's
    recorder is live (``traced``), the worker-side metrics are captured
    in a fresh metrics recorder and shipped back as a dict (snapshots are the
    only metric type that crosses the process boundary — recorders
    don't pickle)."""
    work, args, traced = item
    started = time.perf_counter()
    if not traced:
        result = work(*args)
        return result, time.perf_counter() - started, None
    from ..obs import MetricsRecorder, use_recorder

    recorder = MetricsRecorder()
    with use_recorder(recorder):
        result = work(*args)
    seconds = time.perf_counter() - started
    return result, seconds, recorder.snapshot().to_dict()


def _exit_with_parent() -> None:
    """Pool-worker initializer: exit once the process that made the pool
    is gone.  A worker blocks on the pool's call queue forever, so after
    its maker is killed (``kill -9`` of ``repro-served``, of a batch
    ``repro-analyze`` or of a campaign) only this watch ends it.  It waits
    on multiprocessing's parent sentinel, which closes when the maker
    dies under every start method.  The worker's OS parent is no guide:
    under ``forkserver`` (the Linux default from Python 3.14) it is the
    fork server, which outlives the maker while any worker remains."""
    import multiprocessing

    parent = multiprocessing.parent_process()
    if parent is None:
        return

    def watch() -> None:
        parent.join()
        os._exit(0)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _make_pool(jobs: int):
    """The process pool behind :func:`fan_out` and the daemon; its
    workers exit with the process that made it."""
    import concurrent.futures as futures

    return futures.ProcessPoolExecutor(max_workers=jobs, initializer=_exit_with_parent)


def fan_out(
    work: Callable,
    items: Sequence[Tuple],
    jobs: int,
    prefix: str = "batch",
    budget: Optional[ResourceBudget] = None,
    quarantine: Optional[Callable] = None,
    pool=None,
) -> Iterator[Tuple[object, float, bool]]:
    """Yield ``(work(*args), seconds, quarantined)`` for every ``args``
    tuple in ``items``, in input order.

    ``work`` must be module-level (it crosses the pool by name) and take
    a ``budget=`` keyword.  A process pool is used when it pays off
    (``pool`` given, or ``jobs > 1`` with more than one item); where no
    pool can be made (restricted sandboxes) every item runs inline.  An
    item whose attempt crashed is retried once inline under
    ``budget.tightened()``; if the retry raises too, its result is
    ``quarantine(args, cause, retry_error)`` (without ``quarantine`` the
    retry's exception propagates).
    """
    if not items:
        return
    rec = get_recorder()

    def retry(args, cause: BaseException) -> Tuple[object, float, bool]:
        """Second (and last) chance for an item whose first attempt
        crashed: inline, under a tightened budget; quarantine on failure."""
        rec.count(f"{prefix}.worker_failures")
        rec.count(f"{prefix}.retries")
        started = time.perf_counter()
        try:
            result = work(*args, budget=(budget or ResourceBudget()).tightened())
        except Exception as retry_exc:  # noqa: BLE001 — quarantine, don't abort
            if quarantine is None:
                raise
            rec.count(f"{prefix}.quarantined")
            return quarantine(args, cause, retry_exc), time.perf_counter() - started, True
        return result, time.perf_counter() - started, False

    if pool is not None or (jobs > 1 and len(items) > 1):
        try:
            results = _fan_out_pool(work, items, jobs, pool, rec, retry)
        except (OSError, ImportError, RuntimeError):
            # no multiprocessing in this environment (sandboxed /dev/shm,
            # missing semaphores, broken pool): degrade to inline
            rec.count(f"{prefix}.pool_unavailable")
        else:
            yield from results
            return
    for args in items:
        started = time.perf_counter()
        with rec.span(f"{prefix}.file"):
            try:
                result = work(*args)
            except Exception as exc:  # noqa: BLE001 — per-item isolation
                yield retry(args, exc)
                continue
        yield result, time.perf_counter() - started, False


def _fan_out_pool(work, items, jobs, pool, rec, retry) -> list:
    """One future per item, so a dying worker only loses that item.

    When a worker is killed the pool breaks and every outstanding future
    raises; each affected item is then retried inline rather than lost.
    Pool-*creation* errors propagate to :func:`fan_out`'s inline
    fallback.
    """
    results = []
    own_pool = pool is None
    executor = _make_pool(jobs) if own_pool else pool
    try:
        futures = [
            executor.submit(_pool_worker, (work, args, rec.enabled)) for args in items
        ]
        for future, args in zip(futures, items):
            try:
                result, seconds, worker_metrics = future.result()
            except Exception as exc:  # noqa: BLE001 — BrokenProcessPool et al.
                results.append(retry(args, exc))
            else:
                if worker_metrics:
                    from ..obs import MetricsSnapshot

                    rec.absorb(MetricsSnapshot.from_dict(worker_metrics))
                results.append((result, seconds, False))
    finally:
        if own_pool:
            executor.shutdown()
    return results
