"""Windowed instruments: time series over simulated-time buckets.

Whole-run aggregates answer "how slow was the tail"; the saturation
questions need "when did it get slow".  A :class:`WindowedMetrics`
registry buckets every observation into fixed-width simulated-time
windows (``window = t // window_ns``), so an instrument becomes a
series of per-window summaries instead of one number.  Three shapes:

- :class:`WindowedCounter` — events per window (faults, messages);
- :class:`WindowedGauge` — last value and peak per window (backlog);
- :class:`WindowedHistogram` — one histogram per window (either
  backend from :mod:`repro.metrics.hist`), for per-window percentiles.

Windows are keyed sparsely by index: a quiet window costs nothing, and
the memory bound is O(active windows × instruments), independent of the
observation count when the ``logbucket`` backend is selected.

Like every instrument here, windowing is pure observation: it never
schedules events, consumes RNG, or reads the wall clock — timestamps
come exclusively from the bound simulated clock of the caller.
"""

from __future__ import annotations

from repro.metrics.hist import AnyHistogram, make_histogram

__all__ = [
    "WindowedCounter",
    "WindowedGauge",
    "WindowedHistogram",
    "WindowedMetrics",
]


class WindowedCounter:
    """Monotone per-window event counts."""

    __slots__ = ("name", "windows")

    def __init__(self, name: str) -> None:
        self.name = name
        self.windows: dict[int, int] = {}

    def add(self, window: int, by: int = 1) -> None:
        self.windows[window] = self.windows.get(window, 0) + by

    @property
    def total(self) -> int:
        return sum(self.windows.values())


class WindowedGauge:
    """Per-window last value and peak of a sampled level."""

    __slots__ = ("name", "windows")

    def __init__(self, name: str) -> None:
        self.name = name
        #: window -> (last value, peak value)
        self.windows: dict[int, tuple[float, float]] = {}

    def set(self, window: int, value: float) -> None:
        prev = self.windows.get(window)
        if prev is None:
            self.windows[window] = (value, value)
        else:
            self.windows[window] = (value, max(prev[1], value))


class WindowedHistogram:
    """One histogram per window, lazily created."""

    __slots__ = ("name", "backend", "windows")

    def __init__(self, name: str, backend: str = "exact") -> None:
        self.name = name
        self.backend = backend
        self.windows: dict[int, AnyHistogram] = {}

    def observe(self, window: int, value: float) -> None:
        hist = self.windows.get(window)
        if hist is None:
            hist = self.windows[window] = make_histogram(self.name, self.backend)
        hist.observe(value)


class WindowedMetrics:
    """A registry of windowed instruments sharing one window width."""

    def __init__(self, window_ns: int, hist_backend: str = "exact") -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = window_ns
        self.hist_backend = hist_backend
        self.counters: dict[str, WindowedCounter] = {}
        self.gauges: dict[str, WindowedGauge] = {}
        self.histograms: dict[str, WindowedHistogram] = {}

    def window_of(self, t: int) -> int:
        return t // self.window_ns

    # ------------------------------------------------------------------
    # recording (t is always a simulated-time stamp in ns)

    def count(self, name: str, t: int, by: int = 1) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = WindowedCounter(name)
        c.add(self.window_of(t), by)

    def gauge(self, name: str, t: int, value: float) -> None:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = WindowedGauge(name)
        g.set(self.window_of(t), value)

    def observe(self, name: str, t: int, value: float) -> None:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = WindowedHistogram(name, self.hist_backend)
        h.observe(self.window_of(t), value)

    # ------------------------------------------------------------------
    # queries

    def counter_window(self, name: str, window: int) -> int:
        c = self.counters.get(name)
        return c.windows.get(window, 0) if c is not None else 0

    def gauge_window(self, name: str, window: int) -> tuple[float, float] | None:
        g = self.gauges.get(name)
        return g.windows.get(window) if g is not None else None

    def hist_window(self, name: str, window: int) -> AnyHistogram | None:
        h = self.histograms.get(name)
        return h.windows.get(window) if h is not None else None

    def max_window(self) -> int:
        """Largest window index holding any data (-1 when empty)."""
        out = -1
        for c in self.counters.values():
            if c.windows:
                out = max(out, max(c.windows))
        for g in self.gauges.values():
            if g.windows:
                out = max(out, max(g.windows))
        for h in self.histograms.values():
            if h.windows:
                out = max(out, max(h.windows))
        return out
