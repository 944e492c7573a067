"""Simulated-time profiler: where did each node's wall of time go?

The experiments' explanations live at this granularity — "dot-product
does not scale because the nodes sit in fault stalls", "one-node PDE
spends its life on the disk" (Figure 4's super-linear region).  The
profiler collects per-node **intervals** of simulated time, each tagged
with a category, and partitions every node's ``[0, T]`` timeline into

    disk > compute > network > fault > idle

by a line sweep: at each instant the node is attributed to the
highest-precedence category with an active interval, and to ``idle``
when none is active.  Because the sweep partitions the timeline, the
per-node breakdown sums to ``T`` exactly (±0) by construction — overlap
(an app process computing while another's fault is in flight) is
resolved, never double-counted.

Interval sources (wired by the cluster):

- ``compute`` — :class:`repro.proc.scheduler.NodeScheduler` records every
  application ``Compute`` effect and context switch;
- ``disk``    — :class:`repro.machine.disk.Disk` spans its transfers;
- ``network`` — ``serve:*`` spans (interrupt-level request handlers);
- ``fault``   — ``fault.*`` root spans (the faulting process is stalled).

The precedence encodes the model's stall semantics: a disk transfer
stalls the whole node (IVY had no I/O overlap), compute is real CPU use
even when it happens *during* someone else's fault (that overlap is the
win being measured), handler service is network work, and what remains
of a fault is pure stall.  ``idle`` also absorbs unattributed system
activity (migration traffic, timers), which is not worth a category.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.obs.timeline import split

__all__ = ["SimProfiler", "CATEGORIES", "PRECEDENCE"]

#: Every category a breakdown reports, in display order.
CATEGORIES = ("compute", "fault", "network", "disk", "idle")

#: Attribution precedence for overlapping intervals (idle is the rest).
PRECEDENCE = ("disk", "compute", "network", "fault")


def _by_category() -> defaultdict[str, list[tuple[int, int]]]:
    # A module-level factory, not a lambda: a finished run's profiler
    # pickles back from a worker process.
    return defaultdict(list)


class SimProfiler:
    """Per-node interval store + line-sweep attribution."""

    def __init__(self) -> None:
        #: node -> category -> list of (start, end) in simulated ns.
        self._intervals: defaultdict[int, defaultdict[str, list[tuple[int, int]]]] = (
            defaultdict(_by_category)
        )

    def interval(self, node: int, category: str, start: int, end: int) -> None:
        """Record that ``node`` spent ``[start, end)`` in ``category``.

        Empty, inverted, and pre-boot (negative start) intervals are
        dropped — they carry no time.
        """
        if start < 0 or end <= start:
            return
        self._intervals[node][category].append((start, end))

    # ------------------------------------------------------------------

    def _deltas(
        self, node: int, total_ns: int
    ) -> defaultdict[int, defaultdict[str, int]]:
        """Boundary events: +1/-1 per category at clamped interval edges."""
        deltas: defaultdict[int, defaultdict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        known = set(PRECEDENCE)
        for cat, spans in self._intervals.get(node, {}).items():
            if cat not in known:
                continue  # unknown categories fall through to idle
            for start, end in spans:
                start = max(0, start)
                end = min(end, total_ns)
                if end <= start:
                    continue
                deltas[start][cat] += 1
                deltas[end][cat] -= 1
        return deltas

    def window_breakdown(
        self, node: int, total_ns: int, window_ns: int
    ) -> list[dict[str, int]]:
        """Per-window partition of one node's ``[0, total_ns]`` timeline.

        The line sweep: at each instant the node is attributed to the
        highest-precedence active category, and each attributed segment
        is credited across the window boundaries it crosses.  Returns
        one ``{category: ns}`` dict per window of width ``window_ns``;
        every full window's values sum to ``window_ns`` exactly, and the
        final (possibly partial) window's values sum to ``total_ns -
        (nwindows - 1) * window_ns``.
        """
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        nwin = max(1, -(-total_ns // window_ns))  # ceil
        out = [{cat: 0 for cat in CATEGORIES} for _ in range(nwin)]
        if total_ns <= 0:
            return out

        def credit(start: int, end: int, cat: str) -> None:
            for win, ns in split(start, end, window_ns):
                out[win][cat] += ns

        deltas = self._deltas(node, total_ns)
        active = {cat: 0 for cat in PRECEDENCE}
        prev = 0
        for t in sorted(deltas):
            if t > prev:
                credit(prev, t, self._pick(active))
                prev = t
            for cat, d in deltas[t].items():
                active[cat] += d
        if prev < total_ns:
            credit(prev, total_ns, self._pick(active))
        return out

    def breakdown(self, node: int, total_ns: int) -> dict[str, int]:
        """Partition ``[0, total_ns]`` of one node's timeline: the
        one-window case of :meth:`window_breakdown`.

        Returns ``{category: ns}`` over :data:`CATEGORIES`; the values
        sum to ``total_ns`` exactly.
        """
        return self.window_breakdown(node, total_ns, max(1, total_ns))[0]

    @staticmethod
    def _pick(active: dict[str, int]) -> str:
        for cat in PRECEDENCE:
            if active[cat] > 0:
                return cat
        return "idle"

    def per_node_windows(
        self, nnodes: int, total_ns: int, window_ns: int
    ) -> dict[int, list[dict[str, int]]]:
        """Windowed breakdown for every node id in ``range(nnodes)``."""
        return {
            node: self.window_breakdown(node, total_ns, window_ns)
            for node in range(nnodes)
        }

    def per_node(self, nnodes: int, total_ns: int) -> dict[int, dict[str, int]]:
        """Breakdown for every node id in ``range(nnodes)``: the
        one-window case of :meth:`per_node_windows`."""
        per_node = self.per_node_windows(nnodes, total_ns, max(1, total_ns))
        return {node: windows[0] for node, windows in per_node.items()}

    @staticmethod
    def cluster(breakdowns: Iterable[dict[str, int]]) -> dict[str, int]:
        """Sum per-node breakdowns (of one run or one window) into a
        cluster-wide one."""
        out = {cat: 0 for cat in CATEGORIES}
        for counts in breakdowns:
            for cat, ns in counts.items():
                out[cat] += ns
        return out
