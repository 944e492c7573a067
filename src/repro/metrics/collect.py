"""Counters and per-epoch deltas.

Every simulated component increments named counters on a per-node
:class:`Counters` object.  Experiments that need time-phased numbers
(Table 1 counts disk transfers *per Jacobi iteration*) wrap the counters
in an :class:`EpochLog` and call :meth:`EpochLog.mark` at phase
boundaries; the log records the delta of every counter over each epoch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

__all__ = ["Counters", "EpochLog", "VIOLATION_PREFIX"]

#: Namespace for correctness-checker counters: the coherence oracle and
#: the race detector (repro.analysis) record every finding under
#: ``violation.<rule>`` so reports can separate them from traffic stats.
VIOLATION_PREFIX = "violation."


class Counters:
    """A bag of named monotonic counters."""

    def __init__(self) -> None:
        self._values: defaultdict[str, int] = defaultdict(int)

    def inc(self, name: str, by: int = 1) -> None:
        self._values[name] += by

    def get(self, name: str) -> int:
        return self._values.get(name, 0)

    def violations(self) -> dict[str, int]:
        """Correctness-checker findings, keyed by rule name."""
        return {
            name[len(VIOLATION_PREFIX):]: value
            for name, value in self._values.items()
            if name.startswith(VIOLATION_PREFIX)
        }

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def snapshot(self) -> dict[str, int]:
        return dict(self._values)

    def names(self) -> Iterable[str]:
        return self._values.keys()

    @staticmethod
    def merge(parts: Iterable["Counters"]) -> "Counters":
        """Sum counters across nodes into a cluster-wide view."""
        total = Counters()
        for part in parts:
            for name, value in part._values.items():
                total._values[name] += value
        return total


class EpochLog:
    """Records counter deltas between successive :meth:`mark` calls."""

    def __init__(self, sources: list[Counters]) -> None:
        self._sources = sources
        self._last = self._totals()
        #: list of (label, {counter: delta}) in mark order.
        self.epochs: list[tuple[str, dict[str, int]]] = []

    def _totals(self) -> dict[str, int]:
        total: defaultdict[str, int] = defaultdict(int)
        for src in self._sources:
            for name, value in src.snapshot().items():
                total[name] += value
        return dict(total)

    def mark(self, label: str) -> dict[str, int]:
        """Close the current epoch under ``label``; return its deltas."""
        now = self._totals()
        delta = {
            name: now.get(name, 0) - self._last.get(name, 0)
            for name in sorted(set(now) | set(self._last))
        }
        delta = {k: v for k, v in delta.items() if v}
        self.epochs.append((label, delta))
        self._last = now
        return delta

    def series(self, counter: str) -> list[tuple[str, int]]:
        """The per-epoch series of one counter."""
        return [(label, delta.get(counter, 0)) for label, delta in self.epochs]
