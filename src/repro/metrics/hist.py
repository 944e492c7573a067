"""Metric instruments beyond flat counters: histograms and gauges.

:class:`Counters` answers "how many"; the experiments' *why* questions
need distributions — how long fault service took at the tail, how far
behind the ring a message queued, how wide an invalidation fanned out.
Two histogram backends share one duck-typed surface:

- :class:`Histogram` records every observation exactly (simulated
  quantities are cheap integers, so exact percentiles beat bucketing
  at small scale) and reports nearest-rank percentiles;
- :class:`LogBucketHistogram` is the bounded-memory alternative for
  256-node runs: DDSketch-style logarithmic buckets with a guaranteed
  relative-error bound :data:`ALPHA` on every reported quantile, O(log
  range) memory no matter how many observations arrive.

A :class:`Gauge` tracks the latest value of a sampled level (resident
frames).  :class:`Metrics` is the run's one registry (every node
observes into it; nothing is merged); its backend, chosen once per
registry, builds every histogram through :func:`make_histogram`.

These instruments are pure observation: observing never schedules
simulation events, consumes RNG, or yields effects, so enabling them
cannot change simulated times or event counts.
"""

from __future__ import annotations

import math
from typing import Union

from repro.config import ConfigError

__all__ = [
    "Histogram",
    "LogBucketHistogram",
    "AnyHistogram",
    "Gauge",
    "Metrics",
    "make_histogram",
    "HIST_BACKENDS",
    "ALPHA",
]

#: The percentiles every report prints.
REPORT_PERCENTILES = (50.0, 95.0, 99.0)

#: Selectable histogram backends (`exact` keeps every sample,
#: `logbucket` keeps O(log range) counters with bounded relative error).
HIST_BACKENDS = ("exact", "logbucket")

#: The log-bucket backend's relative-error bound on every quantile.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)


def _rank(q: float, count: int) -> int:
    """The nearest rank of percentile ``q`` (in [0, 100]) among
    ``count`` samples: ``ceil(q * count / 100)``, at least 1."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} out of [0, 100]")
    return max(1, -(-int(q * count) // 100))


def _summary(hist: AnyHistogram) -> dict[str, float | int | None]:
    """The reporting summary, the same for both backends."""
    out: dict[str, float | int | None] = {
        "count": hist.count,
        "sum": hist.total,
        "min": hist.min,
        "max": hist.max,
    }
    for q in REPORT_PERCENTILES:
        out[f"p{q:g}"] = hist.percentile(q)
    return out


class Histogram:
    """Exact-value histogram with nearest-rank percentiles."""

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: float, key: int | None = None) -> int | None:
        """Record ``value``; ``key`` (a log bucket) is handed back unused."""
        if self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)
        return key

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def min(self) -> float | None:
        return min(self._values) if self._values else None

    @property
    def max(self) -> float | None:
        return max(self._values) if self._values else None

    def mean(self) -> float | None:
        return self.total / len(self._values) if self._values else None

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile (q in [0, 100]); None when empty.

        With a single sample every percentile is that sample; ranks
        never interpolate, so the result is always an observed value.
        """
        if not self._values:
            return None
        rank = _rank(q, len(self._values))
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values[rank - 1]

    def summary(self) -> dict[str, float | int | None]:
        return _summary(self)


class LogBucketHistogram:
    """Bounded-memory histogram with logarithmic buckets.

    DDSketch-style: value ``v > 0`` lands in bucket ``ceil(log_γ v)``
    with ``γ = (1 + α) / (1 - α)`` and ``α =`` :data:`ALPHA`, whose
    representative midpoint ``2·γ^b / (γ + 1)`` is within relative
    error ``α`` of every value the bucket holds.  Percentiles walk the
    sorted bucket keys by cumulative count, so any reported quantile is
    within ``α`` of the exact nearest-rank answer.  Non-positive values
    share one exact "zero" bucket (simulated durations are never
    negative; zeros are common and must not be distorted).
    Count/sum/min/max stay exact.
    """

    __slots__ = ("name", "_buckets", "_zero", "_count", "_total", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._total = 0.0
        self._min: float | None = None
        self._max: float | None = None

    @staticmethod
    def _representative(key: int) -> float:
        return 2.0 * _GAMMA**key / (_GAMMA + 1.0)

    def observe(self, value: float, key: int | None = None) -> int | None:
        """Record ``value``; returns its bucket (None for zero), which the
        same sample's record in another histogram may pass as ``key``."""
        if value <= 0.0:
            self._zero += 1
        else:
            if key is None:
                key = math.ceil(math.log(value) / _LOG_GAMMA)
            self._buckets[key] = self._buckets.get(key, 0) + 1
        self._count += 1
        self._total += value
        # On a tie the first-seen sample stays, as min()/max() keep it.
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        return key

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def min(self) -> float | None:
        return self._min

    @property
    def max(self) -> float | None:
        return self._max

    def mean(self) -> float | None:
        return self._total / self._count if self._count else None

    @property
    def nbuckets(self) -> int:
        return len(self._buckets) + (1 if self._zero else 0)

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile within relative error :data:`ALPHA`."""
        if not self._count:
            return None
        rank = _rank(q, self._count)
        if rank <= self._zero:
            return 0.0
        seen = self._zero
        for key in sorted(self._buckets):
            seen += self._buckets[key]
            if seen >= rank:
                rep = self._representative(key)
                # Clamp into the exact observed range: the extreme
                # buckets' midpoints can overshoot min/max slightly.
                if self._min is not None:
                    rep = max(rep, self._min)
                if self._max is not None:
                    rep = min(rep, self._max)
                return rep
        return self._max  # pragma: no cover - counts always cover rank

    def summary(self) -> dict[str, float | int | None]:
        return _summary(self)


#: Either histogram backend; both expose the same reporting surface.
AnyHistogram = Union[Histogram, LogBucketHistogram]


def make_histogram(name: str, backend: str = "exact") -> AnyHistogram:
    """Build a histogram of the requested backend."""
    if backend == "exact":
        return Histogram(name)
    if backend == "logbucket":
        return LogBucketHistogram(name)
    raise ConfigError.unknown("obs.hist_backend", backend, HIST_BACKENDS)


class Gauge:
    """Latest value of a sampled level (plus the observed peak)."""

    __slots__ = ("name", "value", "peak", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None
        self.peak: float | None = None
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.peak = value if self.peak is None else max(self.peak, value)
        self.updates += 1


class Metrics:
    """The run's registry of named instruments, shared by every node.

    ``default_backend`` picks the histogram implementation for lazily
    created instruments.
    """

    def __init__(self, default_backend: str = "exact") -> None:
        if default_backend not in HIST_BACKENDS:
            raise ConfigError.unknown("obs.hist_backend", default_backend, HIST_BACKENDS)
        self.histograms: dict[str, AnyHistogram] = {}
        self.gauges: dict[str, Gauge] = {}
        self.default_backend = default_backend

    def histogram(self, name: str) -> AnyHistogram:
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = make_histogram(name, self.default_backend)
        return hist

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def gauge(self, name: str, value: float) -> None:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge(name)
        g.set(value)

    def snapshot(self) -> dict[str, dict[str, float | int | None]]:
        out: dict[str, dict[str, float | int | None]] = {
            name: hist.summary() for name, hist in sorted(self.histograms.items())
        }
        for name, g in sorted(self.gauges.items()):
            out[name] = {"value": g.value, "peak": g.peak, "updates": g.updates}
        return out
