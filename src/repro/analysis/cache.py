"""A content-addressed on-disk cache for analysis reports.

Reports are keyed by ``sha256(source)`` combined with a fingerprint of
the analyzer configuration and a version salt covering the spec corpus,
the rule set, and the report schema — so editing a script, changing an
analysis flag, or upgrading the analyzer each invalidate exactly the
entries they affect, and nothing else.

Entries are JSON files (one per report, sharded by key prefix) written
atomically; a corrupt or unreadable entry is indistinguishable from a
miss.  The cache is safe to share between concurrent processes: writers
never modify files in place, and readers tolerate partial state.

The cache is an accelerator, never a dependency: a write that fails
(disk full, read-only directory, yanked permissions) is swallowed with
a ``batch.cache.write_errors`` count and a once-per-process warning,
and the analysis continues uncached; a corrupt entry reads as a miss
and bumps ``batch.cache.corrupt``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
from typing import Optional

from .. import __version__
from ..obs import get_recorder
from .report import Report

#: bump to invalidate every cache entry produced by older analyzers
#: (e.g. when engine semantics or checker rules change without a
#: package-version bump)
ANALYSIS_SALT = "analysis-v2"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro/analysis``,
    else ``~/.cache/repro/analysis``."""
    explicit = os.environ.get("REPRO_CACHE_DIR")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro", "analysis")


def version_salt() -> str:
    """The part of every key that ties entries to this analyzer build:
    package version, report schema, rule salt, and the spec corpus (so
    adding or changing a command spec invalidates prior results)."""
    from ..specs import default_registry

    spec_names = ",".join(default_registry().names())
    spec_digest = hashlib.sha256(spec_names.encode("utf-8")).hexdigest()[:16]
    return (
        f"{__version__}/{ANALYSIS_SALT}/schema{Report.SCHEMA_VERSION}"
        f"/specs:{spec_digest}"
    )


def cache_key(source: str, config_fingerprint: str) -> str:
    """The content address of one (script, configuration) pair."""
    hasher = hashlib.sha256()
    hasher.update(source.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(config_fingerprint.encode("utf-8"))
    hasher.update(b"\x00")
    hasher.update(version_salt().encode("utf-8"))
    return hasher.hexdigest()


#: write-failure warning fires once per process (the daemon must not
#: spam its stderr once the disk fills)
_write_warned = False


class ResultCache:
    """Load/store serialized reports under a root directory."""

    def __init__(self, root: Optional[str] = None):
        self.root = root if root is not None else default_cache_dir()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".json")

    def get(self, key: str, schema: Optional[int] = None) -> Optional[dict]:
        """The stored dict, or None on a miss (including corrupt or
        partially-written entries).  ``schema`` is the expected payload
        schema version — the report schema by default; other payload
        kinds (e.g. optimization plans) pass their own so a stale or
        foreign entry reads as a miss."""
        expected = schema if schema is not None else Report.SCHEMA_VERSION
        try:
            raw = self._read(self.path_for(key))
        except OSError:
            return None
        try:
            data = json.loads(raw)
        except ValueError:
            get_recorder().count("batch.cache.corrupt")
            return None
        if not isinstance(data, dict):
            get_recorder().count("batch.cache.corrupt")
            return None
        if data.get("schema") != expected:
            # fingerprint-equal but written by a different schema build
            # (partial upgrade: old daemon + new CLI sharing one cache
            # dir).  ``from_dict`` on such a payload could raise or —
            # worse — silently misread fields, so it must read as a
            # miss, and as a *visible* one.
            get_recorder().count("batch.cache.schema_miss")
            return None
        return data

    def put(self, key: str, data: dict) -> bool:
        """Atomically store a report dict; never fatal — a read-only or
        full disk degrades the cache to a pass-through with a
        ``batch.cache.write_errors`` count and one warning per
        process."""
        global _write_warned
        path = self.path_for(key)
        try:
            self._write(
                os.path.dirname(path),
                path,
                json.dumps(data, separators=(",", ":")),
            )
        except OSError as exc:
            get_recorder().count("batch.cache.write_errors")
            if not _write_warned:
                _write_warned = True
                warnings.warn(
                    f"result cache write failed ({exc}); continuing "
                    f"uncached (further write failures are counted under "
                    f"batch.cache.write_errors, not repeated)",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return False
        return True

    # -- filesystem layer (a subclass may override these) -----------------

    def _read(self, path: str) -> str:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()

    def _write(self, directory: str, path: str, payload: str) -> None:
        os.makedirs(directory, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

