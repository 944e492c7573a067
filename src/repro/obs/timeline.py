"""Windowed telemetry timeline over simulated time.

The whole-run instruments in :mod:`repro.obs` answer "how much, in
total"; saturation is a *when* question.  A :class:`Timeline` buckets
every observation into fixed-width simulated-time windows (via
:class:`repro.metrics.windowed.WindowedMetrics`) and additionally
accounts two interval-shaped series that plain instruments cannot
express:

- **link busy time** — fabric backends report every booked transmission
  as ``link_busy(link, start, end)``; the busy nanoseconds are credited
  to each window the interval crosses, making per-link utilisation a
  curve and "busiest links over time" a report;
- **span time** — closed spans are credited the same way (busy-ns per
  window plus a per-window duration histogram at the closing window),
  so fault/serve/disk activity becomes visible per window even when
  head-based sampling drops the span record itself.

Feeding a timeline is pure observation: every timestamp is simulated
(from the bound cluster clock or an interval already stamped by the
simulation), no RNG is consumed, no event is scheduled, and no wall
clock is read.  The simulated schedule is bit-for-bit identical with
the timeline on or off.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.metrics.windowed import WindowedMetrics
from repro.obs.span import UNSTAMPED

__all__ = ["Timeline"]


class Timeline:
    """Windowed counters/gauges/histograms plus link and span series."""

    def __init__(self, window_ns: int, hist_backend: str = "exact") -> None:
        self.metrics = WindowedMetrics(window_ns, hist_backend)  # checks window_ns > 0
        self.window_ns = window_ns
        #: link name -> window -> busy ns inside that window
        self._links: dict[str, dict[int, int]] = {}
        self._clock: Callable[[], int] | None = None

    def bind_clock(self, clock: Callable[[], int] | None) -> None:
        self._clock = clock

    def _now(self) -> int:
        return self._clock() if self._clock is not None else UNSTAMPED

    # ------------------------------------------------------------------
    # recording

    def observe(self, name: str, value: float, t: int | None = None) -> None:
        at = self._now() if t is None else t
        if at != UNSTAMPED:
            self.metrics.observe(name, at, value)

    def count(self, name: str, by: int = 1, t: int | None = None) -> None:
        at = self._now() if t is None else t
        if at != UNSTAMPED:
            self.metrics.count(name, at, by)

    def gauge(self, name: str, value: float, t: int | None = None) -> None:
        at = self._now() if t is None else t
        if at != UNSTAMPED:
            self.metrics.gauge(name, at, value)

    def _credit(
        self, out: dict[int, int], start: int, end: int
    ) -> None:
        """Split ``[start, end)`` across window boundaries into ``out``."""
        if end <= start:
            return
        w = self.window_ns
        win = start // w
        at = start
        while at < end:
            edge = (win + 1) * w
            stop = end if end < edge else edge
            out[win] = out.get(win, 0) + (stop - at)
            at = stop
            win += 1

    def link_busy(self, link: str, start: int, end: int) -> None:
        """Credit a booked transmission on ``link`` to its windows."""
        if start == UNSTAMPED or end == UNSTAMPED or end <= start:
            return
        per = self._links.get(link)
        if per is None:
            per = self._links[link] = {}
        self._credit(per, start, end)

    def span(self, name: str, start: int, end: int) -> None:
        """Credit a closed span: busy-ns per window it crosses, plus its
        duration observed at the window it closed in."""
        if start == UNSTAMPED or end == UNSTAMPED or end < start:
            return
        c = self.metrics.counters.get(f"span.{name}.busy_ns")
        if c is None:
            self.metrics.count(f"span.{name}.busy_ns", start, 0)
            c = self.metrics.counters[f"span.{name}.busy_ns"]
        self._credit(c.windows, start, end)
        self.metrics.observe(f"span.{name}.ns", end, end - start)

    # ------------------------------------------------------------------
    # queries

    def nwindows(self, total_ns: int) -> int:
        """Window count covering ``[0, total_ns]`` plus any data beyond."""
        by_time = -(-total_ns // self.window_ns) if total_ns > 0 else 1
        by_data = self.max_window() + 1
        return max(1, by_time, by_data)

    def max_window(self) -> int:
        out = self.metrics.max_window()
        for per in self._links.values():
            if per:
                out = max(out, max(per))
        return out

    def links(self) -> list[str]:
        return sorted(self._links)

    def link_window(self, link: str, window: int) -> int:
        per = self._links.get(link)
        return per.get(window, 0) if per is not None else 0

    def link_utilisation(self, window: int) -> float:
        """Utilisation of the *busiest* link inside ``window`` (0..1)."""
        best = 0
        for per in self._links.values():
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
        for link, per in self._links.items():
            busy = sum(per.values())
            peak = max(per.values()) / self.window_ns if per else 0.0
            rows.append((link, busy, peak))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows[:limit]

    def link_series(
        self, links: Iterable[str], nwindows: int
    ) -> dict[str, list[int]]:
        """Busy-ns per window for each named link, dense over windows."""
        return {
            link: [self.link_window(link, w) for w in range(nwindows)]
            for link in links
        }
