"""Metric value types: counters are plain ints; histograms keep summary
statistics plus a *bounded* sample reservoir, so unbounded workloads stay
O(1) memory while ``describe()`` and the ops console can still report
p50/p95/p99 instead of mean-only."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: reservoir capacity per histogram.  512 doubles is ~4KiB and gives a
#: p99 estimate within a couple of rank positions at any stream length.
RESERVOIR_SIZE = 512

#: fixed PRNG seed: reservoir contents are deterministic for a given
#: observation sequence, which keeps tests and benchmark JSON stable.
_RESERVOIR_SEED = 0x5EED


def _mix(value: int) -> int:
    """SplitMix64's finaliser: a fixed, well-spread hash of an integer."""
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


@dataclass
class Histogram:
    """Streaming summary of an observed distribution.

    Exact ``count``/``total``/``min``/``max`` plus a bounded reservoir
    (Vitter's algorithm R with a fixed seed) backing
    :meth:`percentile`.  Quantiles are therefore estimates once more
    than :data:`RESERVOIR_SIZE` values have been observed; everything
    else is exact.
    """

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    samples: List[float] = field(default_factory=list)
    _rng: Optional[random.Random] = field(
        default=None, repr=False, compare=False
    )

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if len(self.samples) < RESERVOIR_SIZE:
            self.samples.append(value)
        else:
            if self._rng is None:
                self._rng = random.Random(_RESERVOIR_SEED)
            slot = self._rng.randrange(self.count)
            if slot < RESERVOIR_SIZE:
                self.samples[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[float]:
        """The q-th percentile (``q`` in [0, 100]) from the reservoir,
        by linear interpolation between closest ranks; None when no
        values have been observed."""
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        fraction = rank - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in, preserving reservoir samples.

        ``other``'s samples fill the free slots first.  The rest continue
        algorithm R as if observed after ``self``'s values: each stands
        for ``w = other.count / len(other.samples)`` observations, so it
        gets ``w`` times the chance of a slot, and the slot is drawn by a
        fixed hash of its observation number.  The fold is deterministic,
        costs O(len(other.samples)) and keeps a cross-section of both
        sides."""
        before = self.count
        self.count += other.count
        self.total += other.total
        for bound in (other.minimum, other.maximum):
            if bound is None:
                continue
            if self.minimum is None or bound < self.minimum:
                self.minimum = bound
            if self.maximum is None or bound > self.maximum:
                self.maximum = bound
        incoming = other.samples
        room = max(0, RESERVOIR_SIZE - len(self.samples))
        self.samples.extend(incoming[:room])
        if len(incoming) <= room:
            return
        weight = other.count / len(incoming)
        threshold = RESERVOIR_SIZE * weight
        for idx in range(room, len(incoming)):
            number = before + max(1, int((idx + 1) * weight))
            draw = _mix(number) % number
            if draw < threshold:
                self.samples[draw % RESERVOIR_SIZE] = incoming[idx]

    def copy(self) -> "Histogram":
        return Histogram(
            count=self.count,
            total=self.total,
            minimum=self.minimum,
            maximum=self.maximum,
            samples=list(self.samples),
        )

    def describe(self) -> str:
        if not self.count:
            return "n=0"
        text = (
            f"n={self.count} mean={self.mean:.2f} "
            f"min={self.minimum:g} max={self.maximum:g}"
        )
        if len(self.samples) > 1:
            text += (
                f" p50={self.percentile(50):g}"
                f" p95={self.percentile(95):g}"
                f" p99={self.percentile(99):g}"
            )
        return text

    def quantiles(self) -> Dict[str, Optional[float]]:
        """The standard ops quantile set (for stats tables and JSON)."""
        return {
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


@dataclass
class MetricsSnapshot:
    """A point-in-time copy of a recorder's counters and histograms.

    Snapshots are the unit of metric *transport*: workers ship them
    across the process-pool boundary, the analysis server folds one per
    request into its totals, and the ``stats`` op serializes them over
    the wire — so :meth:`to_dict`/:meth:`from_dict` must round-trip
    everything, reservoir samples included.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, histogram in other.histograms.items():
            mine = self.histograms.setdefault(name, Histogram())
            mine.merge(histogram)

    def counter(self, name: str) -> int:
        return self.counters.get(name, 0)

    def histogram(self, name: str) -> Histogram:
        return self.histograms.get(name, Histogram())

    def to_dict(self) -> dict:
        """JSON-serializable form (the analysis server's ``stats`` op
        and the pool-worker return path)."""
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.minimum,
                    "max": h.maximum,
                    "samples": list(h.samples),
                }
                for name, h in self.histograms.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            histograms={
                name: Histogram(
                    count=h.get("count", 0),
                    total=h.get("total", 0.0),
                    minimum=h.get("min"),
                    maximum=h.get("max"),
                    samples=list(h.get("samples", [])),
                )
                for name, h in data.get("histograms", {}).items()
            },
        )
