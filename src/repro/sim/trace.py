"""Structured event tracing.

A :class:`TraceRecorder` collects ``(time, category, fields)`` records.
Tracing is off by default (a no-op recorder) so the hot paths only pay a
truthiness check.  Tests use traces to assert protocol-level properties
("the manager forwarded exactly one request", "no invalidation was sent
to a non-copy-holder") that aggregate counters cannot express.

Until :meth:`TraceRecorder.bind_clock` is called (the cluster does this
at boot), events are stamped :data:`UNSTAMPED` rather than silently
timestamped 0 — a recorder used before boot is detectable instead of
producing plausible-looking zero times.

Protocol-transition categories (consumed by ``repro.analysis``):

- ``cluster.boot``     — cluster topology + coherence configuration;
- ``svm.fault_begin``  — a fault handler entered its slow path;
- ``svm.read_fault``   — a read fault completed (copy installed);
- ``svm.write_fault``  — a write fault completed (ownership acquired);
- ``svm.write_upgrade``— an owner upgraded READ -> WRITE in place;
- ``svm.chown``        — a data-less ownership acquisition completed;
- ``svm.grant``        — an owner served a fault (read copy or ownership);
- ``svm.invalidate``   — an owner multicast invalidations;
- ``svm.inv_recv``     — a node applied an invalidation;
- ``svm.update_recv``  — a node applied a pushed page image;
- ``svm.drop``         — eviction dropped a copy / paged out the owner.

Recorded streams round-trip through :meth:`save` / :meth:`load` (JSON
lines) so ``python -m repro.analysis replay`` can check them offline.
The same JSONL conventions (one record per line, sets sorted, bytes as
integer lists — see :func:`jsonable`) are used by the schedule
explorer's counterexample artifacts (``repro.analysis.explore``), so a
violating schedule and the trace it produced stay mutually replayable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["TraceEvent", "TraceRecorder", "NULL_TRACE", "UNSTAMPED", "jsonable"]

#: Timestamp of events emitted before a clock was bound: recorders used
#: before cluster boot mark their events rather than claiming time 0.
UNSTAMPED = -1


@dataclass(frozen=True)
class TraceEvent:
    time: int
    category: str
    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    @property
    def stamped(self) -> bool:
        return self.time != UNSTAMPED


class TraceRecorder:
    """Collects trace events, optionally filtered by category."""

    def __init__(self, categories: set[str] | None = None, enabled: bool = True) -> None:
        self.enabled = enabled
        self.categories = categories
        self.events: list[TraceEvent] = []
        self._clock: Callable[[], int] | None = None

    def bind_clock(self, clock: Callable[[], int]) -> None:
        """Attach the simulator clock; called by the cluster at boot."""
        self._clock = clock

    def __bool__(self) -> bool:
        return self.enabled

    def emit(self, category: str, **fields: Any) -> None:
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        time = self._clock() if self._clock is not None else UNSTAMPED
        self.events.append(TraceEvent(time, category, fields))

    def select(self, category: str, **match: Any) -> list[TraceEvent]:
        """Events of ``category`` whose fields match all of ``match``."""
        return [
            ev
            for ev in self.events
            if ev.category == category
            and all(ev.fields.get(k) == v for k, v in match.items())
        ]

    def count(self, category: str, **match: Any) -> int:
        return len(self.select(category, **match))

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    # ------------------------------------------------------------------
    # replay support (repro.analysis)

    def replay(self, categories: set[str] | None = None) -> Iterator[TraceEvent]:
        """Iterate recorded events in emission (= time) order, optionally
        restricted to ``categories``.  Emission order is the coherence
        order the analysis layer replays — events are appended as the
        simulation executes them, so ties at equal timestamps keep their
        causal order, which a sort by timestamp would not guarantee."""
        for ev in self.events:
            if categories is None or ev.category in categories:
                yield ev

    def save(self, path: str) -> int:
        """Write the recorded stream as JSON lines; returns event count.

        Events emitted before :meth:`bind_clock` carry :data:`UNSTAMPED`
        times; they are saved (the stream stays complete) but a warning
        reports how many, because downstream latency statistics must not
        treat ``-1`` as a time.
        """
        unstamped = sum(1 for ev in self.events if not ev.stamped)
        if unstamped:
            import warnings

            warnings.warn(
                f"{unstamped} of {len(self.events)} trace events are UNSTAMPED "
                "(emitted before bind_clock); latency statistics will skip them",
                stacklevel=2,
            )
        with open(path, "w", encoding="utf-8") as fh:
            for ev in self.events:
                fh.write(
                    json.dumps(
                        {"time": ev.time, "category": ev.category, "fields": ev.fields},
                        default=jsonable,
                    )
                )
                fh.write("\n")
        return len(self.events)

    @classmethod
    def load(cls, path: str) -> "TraceRecorder":
        """Reconstruct a recorder from a :meth:`save` stream.  Tuples do
        not survive the JSON round-trip (they come back as lists), which
        the replay checker normalises itself."""
        rec = cls()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                raw = json.loads(line)
                rec.events.append(
                    TraceEvent(int(raw["time"]), raw["category"], raw["fields"])
                )
        return rec


def jsonable(value: Any) -> Any:
    """``json.dumps(..., default=jsonable)`` fallback shared by trace
    streams and the schedule explorer's artifacts: sets serialise sorted
    (deterministic output), bytes as integer lists."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, bytes):
        return list(value)
    raise TypeError(f"unserialisable trace field {value!r}")


#: Shared disabled recorder — the default for non-test runs.
NULL_TRACE = TraceRecorder(enabled=False)
