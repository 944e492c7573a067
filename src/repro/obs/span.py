"""Causal spans over simulated time.

A :class:`Span` is one timed section of work on one node — a page fault,
an rpc round-trip, a server handler, a disk transfer.  Spans form trees:
a fault opens a root span, its span id rides on every message the fault
sends (``Message.span``), and the receiving node's handler opens a child
span under it, so a read fault becomes::

    fault.read (node 1)
    └── rpc:svm.read (node 1)                 client round-trip
        └── serve:svm.read (node 0)           manager handler
            └── serve:svm.read (node 2)       forwarded to the owner
                └── disk.read (node 2)        owner paged the frame in

with per-hop simulated-time durations.  Span ids are small integers
allocated in emission order; id 0 means "no span" (the :data:`NULL_SPAN`
parent of roots, and the id that rides on messages when observability is
off).

Tracing is opt-in with a no-op fast path: the disabled
:data:`repro.obs.NULL_OBS` facade hands back :data:`NULL_SPAN` instead
of calling :meth:`SpanTracer.span_begin`, and :meth:`SpanTracer.span_end`
ignores it, so instrumented code needs no conditionals and the hot path
pays one attribute check.  Recording is pure observation — it never
schedules events, yields effects, or consumes RNG, so enabling it
cannot change simulated times or event counts.

Head-based sampling (``sample_every > 1``) keeps ~1/N of root spans by
a pure hash of the span id (:func:`repro.obs.sample.keep_root`).  Ids
are allocated identically whether or not a span is kept, so schedules
and id assignment never depend on the sampling rate.  A dropped span
carries the *negated* id: the sign rides ``Message.span`` exactly like
a positive id would, so a receiver can parent its handler span under a
dropped ancestor and drop it too — whole causal trees are kept or
dropped together (0 still means "no span at all").

A tracer used before the cluster binds its clock stamps
:data:`UNSTAMPED` rather than a plausible zero, and streams round-trip
through :meth:`save` / :meth:`load` as JSON lines
(:mod:`repro.obs.jsonl`).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.config import ConfigError
from repro.obs.jsonl import read_jsonl, write_jsonl
from repro.obs.sample import keep_root

__all__ = ["Span", "SpanTracer", "NULL_SPAN", "UNSTAMPED", "unbound_clock", "span_kind"]

#: Time of a record made before a clock was bound: a span or timeline
#: sample taken before cluster boot is marked rather than claiming time 0.
UNSTAMPED = -1


def unbound_clock() -> int:
    """The clock of a store no simulator is bound to."""
    return UNSTAMPED


def span_kind(name: str) -> str:
    """A span name's leading word: ``fault`` for ``fault.read``,
    ``serve`` for ``serve:svm.read``."""
    return name.split(".", 1)[0].split(":", 1)[0]


class Span:
    """One timed, attributed section of simulated work on one node."""

    __slots__ = ("sid", "parent", "name", "node", "start", "end", "attrs")

    def __init__(
        self,
        sid: int,
        parent: int,
        name: str,
        node: int,
        start: int,
        end: int = UNSTAMPED,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.sid = sid
        self.parent = parent
        self.name = name
        self.node = node
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def open(self) -> bool:
        return self.end == UNSTAMPED

    @property
    def duration(self) -> int | None:
        """Simulated duration in ns, or None while the span is open or
        when it was begun before the clock was bound."""
        if self.open or self.start == UNSTAMPED:
            return None
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.sid}, {self.name!r}, node={self.node}, "
            f"[{self.start}, {self.end}], parent={self.parent})"
        )


#: The span handed out when observability is off (and the parent of
#: roots).  Its id 0 is what rides on messages then.
NULL_SPAN = Span(0, 0, "", -1, UNSTAMPED, UNSTAMPED, {})


class SpanTracer:
    """Collects spans, keeping ~1 root tree in ``sample_every``."""

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ConfigError("obs.sample_every", sample_every, ("an integer >= 1",))
        self.sample_every = sample_every
        self.spans: list[Span] = []
        self.dropped = 0
        self._by_sid: dict[int, Span] = {}
        self._next_sid = 0
        self._clock: Callable[[], int] = unbound_clock

    def bind_clock(self, clock: Callable[[], int] | None) -> None:
        """Attach the simulator clock; called by the cluster at boot
        (``None`` detaches it once the run is over)."""
        self._clock = unbound_clock if clock is None else clock

    # ------------------------------------------------------------------
    # recording

    def span_begin(
        self,
        name: str,
        parent: "Span | int | None" = 0,
        node: int = -1,
        start: int | None = None,
        **attrs: Any,
    ) -> Span:
        """Open a span (a dropped one when sampling says so).

        ``parent`` accepts a :class:`Span`, a raw span id (e.g. the id
        that arrived on a message), or None (a root).  ``start``
        overrides the clock for sections whose measurement began before
        the span could be opened (a write fault's latency clock starts
        before the owner-materialisation step that decides whether the
        fault is real).
        """
        pid = parent.sid if isinstance(parent, Span) else int(parent or 0)
        self._next_sid += 1
        sid = self._next_sid
        at = self._clock() if start is None else start
        if pid < 0 or (
            pid == 0
            and self.sample_every > 1
            and not keep_root(sid, self.sample_every)
        ):
            # Dropped: id allocation and timing are identical to the
            # kept path (sampling must not perturb either), but the
            # span is not recorded and its negated id propagates the
            # drop decision to descendants.
            self.dropped += 1
            return Span(-sid, pid, name, node, at, UNSTAMPED, attrs if attrs else {})
        span = Span(sid, pid, name, node, at, UNSTAMPED, attrs if attrs else {})
        self.spans.append(span)
        self._by_sid[span.sid] = span
        return span

    def span_end(self, span: Span, end: int | None = None) -> None:
        """Close a span; :data:`NULL_SPAN` (id 0) is ignored.

        Dropped (negative-id) spans are stamped too: they were never
        recorded, but timeline accumulation still reads their interval,
        and each is a fresh object (unlike the shared NULL_SPAN).
        """
        if span.sid == 0:
            return
        span.end = self._clock() if end is None else end

    # ------------------------------------------------------------------
    # queries

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self.spans)

    def get(self, sid: int) -> Span | None:
        return self._by_sid.get(sid)

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent == 0]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.sid]

    def select(self, name: str, **match: Any) -> list[Span]:
        """Spans named ``name`` whose attrs match all of ``match``."""
        return [
            s
            for s in self.spans
            if s.name == name
            and all(s.attrs.get(k) == v for k, v in match.items())
        ]

    def subtree(self, span: Span) -> list[Span]:
        """``span`` and every descendant, in emission order."""
        wanted = {span.sid}
        out = [span]
        for s in self.spans:
            if s.parent in wanted and s.sid not in wanted:
                wanted.add(s.sid)
                out.append(s)
        return out

    def open_spans(self) -> list[Span]:
        return [s for s in self.spans if s.open]

    # ------------------------------------------------------------------
    # persistence (repro.obs.jsonl)

    def save(self, path: str) -> int:
        """Write the spans as JSON lines; returns the span count."""
        return write_jsonl(
            path,
            (
                {
                    "sid": s.sid, "parent": s.parent, "name": s.name,
                    "node": s.node, "start": s.start, "end": s.end,
                    "attrs": s.attrs,
                }
                for s in self.spans
            ),
        )

    @classmethod
    def load(cls, path: str) -> "SpanTracer":
        tracer = cls()
        for raw in read_jsonl(path):
            span = Span(
                int(raw["sid"]), int(raw["parent"]), raw["name"],
                int(raw["node"]), int(raw["start"]), int(raw["end"]),
                raw.get("attrs") or {},
            )
            tracer.spans.append(span)
            tracer._by_sid[span.sid] = span
            tracer._next_sid = max(tracer._next_sid, span.sid)
        return tracer
