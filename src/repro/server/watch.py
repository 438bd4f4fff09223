"""Watch mode: mtime polling over script corpora.

No inotify dependency — a deliberate choice: the daemon must run in
restricted sandboxes and on every Unix, and a 1-second poll over a few
thousand ``stat`` calls is far below the cost of one analysis.  The
:class:`Watcher` is a pure incremental-scan object (no threads, no
clocks) so tests can drive it deterministically; the daemon wraps it in
a polling thread.

A ``stat`` that fails mid-scan (permissions yanked, file deleted
between ``discover`` and ``stat``, NFS hiccup) is skipped — the scan
must survive it — but no longer *silently*: each failure bumps the
``watch.stat_errors`` counter on the active recorder and emits a
structured ``watch.stat_error`` log event, so a corpus the daemon can
no longer actually see shows up in the ops console instead of looking
like a quiet, perfectly-warm cache.
"""

from __future__ import annotations

import os
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..analysis.batch import discover
from ..obs import get_recorder
from ..obs.log import NullOpsLogger, OpsLogger


class ScanResult(NamedTuple):
    """One scan's delta: paths that changed (new or modified) and paths
    that disappeared since the previous scan."""

    changed: List[str]
    deleted: List[str]


class Watcher:
    """Tracks (size, mtime) signatures for every script reachable from
    ``inputs``; :meth:`scan` returns the paths that changed — and the
    ones that vanished — since the previous scan."""

    def __init__(self, inputs: Sequence[str], log: Optional[OpsLogger] = None):
        self.inputs = list(inputs)
        self.log = log or NullOpsLogger()
        self._signatures: Dict[str, tuple] = {}

    def scan(self) -> ScanResult:
        """Paths new/modified — and paths deleted — since the last scan.

        The first scan primes the signature table and reports *every*
        file as changed (the daemon uses that to pre-warm the cache).
        A tracked path that stops appearing (deleted, or renamed — a
        rename is a deletion plus a new path) is reported in
        ``deleted`` exactly once and evicted from tracking, with a
        ``watch.deleted`` count and a structured log event; previously
        these lingered silently and the daemon kept serving results
        for files that no longer existed.
        """
        changed: List[str] = []
        seen = set()
        recorder = get_recorder()
        try:
            paths = discover(self.inputs)
        except OSError as exc:
            # a whole corpus root going away (unmounted, permissions
            # yanked) must not kill the watch thread
            recorder.count("watch.stat_errors")
            self.log.warning(
                "watch.stat_error",
                path=str(self.inputs),
                error=str(exc),
                errno=exc.errno,
            )
            return ScanResult([], [])
        for path in paths:
            try:
                stat = os.stat(path)
            except OSError as exc:
                recorder.count("watch.stat_errors")
                self.log.warning(
                    "watch.stat_error",
                    path=path,
                    error=str(exc),
                    errno=exc.errno,
                )
                continue
            seen.add(path)
            signature = (stat.st_size, stat.st_mtime_ns)
            if self._signatures.get(path) != signature:
                self._signatures[path] = signature
                changed.append(path)
        deleted: List[str] = []
        for path in list(self._signatures):
            if path not in seen:
                del self._signatures[path]
                deleted.append(path)
                recorder.count("watch.deleted")
                self.log.info("watch.deleted", path=path)
        return ScanResult(changed, deleted)
