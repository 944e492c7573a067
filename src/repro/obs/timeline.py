"""Windowed telemetry timeline over simulated time.

The whole-run instruments in :mod:`repro.obs` answer "how much, in
total"; saturation is a *when* question.  A :class:`Timeline` buckets
every observation into fixed-width simulated-time windows (``window =
t // window_ns``), so an instrument becomes a series of per-window
summaries instead of one number.  Every series is a sparse dict keyed
by window index — a quiet window costs nothing, and memory is
O(active windows × series), independent of the observation count under
the ``logbucket`` histogram backend:

- ``histograms`` — one histogram per window of each observed
  instrument, for per-window percentiles;
- ``gauges`` — last value and peak per window of a sampled level;
- ``counters`` — **span time**: closed spans credit
  ``span.<name>.busy_ns`` to each window they cross, and observe their
  duration at the window they closed in, so fault/serve/disk activity
  is visible per window even when head-based sampling drops the span
  record itself;
- ``links`` — **link busy time**: fabric backends report every booked
  transmission as ``link_busy(link, start, end)``, credited to each
  window the interval crosses, making per-link utilisation a curve and
  "busiest links over time" a report.

Interval-shaped series are split at window edges by :func:`split`, the
one window splitter (the profiler's per-window attribution uses it too).

Feeding a timeline is pure observation: every timestamp is simulated
(from the bound cluster clock or an interval already stamped by the
simulation), no RNG is consumed, no event is scheduled, and no wall
clock is read.  The simulated schedule is bit-for-bit identical with
the timeline on or off.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

from repro.metrics.hist import AnyHistogram, make_histogram
from repro.obs.span import UNSTAMPED, unbound_clock

__all__ = ["Timeline", "split"]


@functools.cache  # once per span name; a hit enters no Python frame
def _span_series(name: str) -> tuple[str, str]:
    """A span name's busy-time and duration series."""
    return f"span.{name}.busy_ns", f"span.{name}.ns"


def split(start: int, end: int, window_ns: int) -> Iterator[tuple[int, int]]:
    """The pieces of ``[start, end)`` per window: ``(window, ns)`` pairs,
    in window order (nothing for an empty interval)."""
    win = start // window_ns
    while start < end:
        edge = (win + 1) * window_ns
        stop = end if end < edge else edge
        yield win, stop - start
        start = stop
        win += 1


class Timeline:
    """Windowed histograms, gauges, span time and link busy time."""

    def __init__(self, window_ns: int, hist_backend: str = "exact") -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = window_ns
        self.hist_backend = hist_backend
        #: instrument -> window -> histogram of the values observed there
        self.histograms: dict[str, dict[int, AnyHistogram]] = {}
        #: gauge -> window -> (last value, peak value)
        self.gauges: dict[str, dict[int, tuple[float, float]]] = {}
        #: ``span.<name>.busy_ns`` -> window -> busy ns inside that window
        self.counters: dict[str, dict[int, int]] = {}
        #: link name -> window -> busy ns inside that window
        self.links: dict[str, dict[int, int]] = {}
        self._clock: Callable[[], int] = unbound_clock

    def bind_clock(self, clock: Callable[[], int] | None) -> None:
        self._clock = unbound_clock if clock is None else clock

    # ------------------------------------------------------------------
    # recording: a sample at ``t`` (now when None) lands in window
    # ``t // window_ns``; an unstamped one (no clock bound) is dropped.

    def observe(self, name: str, value: float, t: int | None = None,
                key: int | None = None) -> None:
        """Record ``value`` (whose log bucket is ``key``, when known)."""
        t = self._clock() if t is None else t
        if t == UNSTAMPED:
            return
        win = t // self.window_ns
        per = self.histograms.get(name)
        if per is None:
            per = self.histograms[name] = {}
        hist = per.get(win)
        if hist is None:
            hist = per[win] = make_histogram(name, self.hist_backend)
        hist.observe(value, key)

    def gauge(self, name: str, value: float, t: int | None = None) -> None:
        t = self._clock() if t is None else t
        if t == UNSTAMPED:
            return
        win = t // self.window_ns
        per = self.gauges.get(name)
        if per is None:
            per = self.gauges[name] = {}
        prev = per.get(win)
        per[win] = (value, value if prev is None else max(prev[1], value))

    def _credit(
        self, series: dict[str, dict[int, int]], name: str, start: int, end: int
    ) -> None:
        per = series.get(name)
        if per is None:
            per = series[name] = {}
        win = start // self.window_ns
        if start < end <= (win + 1) * self.window_ns:
            per[win] = per.get(win, 0) + end - start  # inside one window
            return
        for win, ns in split(start, end, self.window_ns):
            per[win] = per.get(win, 0) + ns

    def link_busy(self, link: str, start: int, end: int) -> None:
        """Credit a booked transmission on ``link`` to its windows."""
        if start == UNSTAMPED or end == UNSTAMPED or end <= start:
            return
        self._credit(self.links, link, start, end)

    def span(self, name: str, start: int, end: int) -> None:
        """Credit a closed span: busy-ns per window it crosses, plus its
        duration observed at the window it closed in."""
        if start == UNSTAMPED or end == UNSTAMPED or end < start:
            return
        busy, duration = _span_series(name)
        self._credit(self.counters, busy, start, end)
        self.observe(duration, end - start, t=end)

    # ------------------------------------------------------------------
    # queries

    def nwindows(self, total_ns: int) -> int:
        """Window count covering ``[0, total_ns]`` plus any data beyond."""
        by_time = -(-total_ns // self.window_ns) if total_ns > 0 else 1
        by_data = self.max_window() + 1
        return max(1, by_time, by_data)

    def max_window(self) -> int:
        """Largest window index holding any data (-1 when empty)."""
        series = (self.histograms, self.gauges, self.counters, self.links)
        return max(
            (max(per) for kind in series for per in kind.values() if per),
            default=-1,
        )

    def hist_window(self, name: str, window: int) -> AnyHistogram | None:
        per = self.histograms.get(name)
        return per.get(window) if per is not None else None

    def link_utilisation(self, window: int) -> float:
        """Utilisation of the *busiest* link inside ``window`` (0..1)."""
        best = 0
        for per in self.links.values():
            busy = per.get(window, 0)
            if busy > best:
                best = busy
        return best / self.window_ns

    def busiest_links(
        self, total_ns: int, limit: int = 8
    ) -> list[tuple[str, int, float]]:
        """Top links by total busy-ns: (name, busy_ns, peak window util).

        Sorted by descending busy time then name, so the report is
        deterministic under ties.
        """
        rows: list[tuple[str, int, float]] = []
        for link, per in self.links.items():
            busy = sum(per.values())
            peak = max(per.values()) / self.window_ns if per else 0.0
            rows.append((link, busy, peak))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:limit]
