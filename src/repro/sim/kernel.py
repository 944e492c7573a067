"""Event queue and simulated clock.

Every event is a ``(time, seq, handle, callback, args, label)`` tuple.
``seq`` is a global monotonic counter, and events fire in ``(time,
seq)`` order: events scheduled at the same tick fire in scheduling
order — this is what makes every run bit-for-bit reproducible.

That total order is held in three lanes, each sorted by ``(time, seq)``
on its own; the run loop fires whichever front is smallest, so the
result is exactly what a single binary heap would produce.  Which lane
an event joins is decided from what the kernel observes at
``schedule`` time, never by the caller:

* **Heap.**  The general case: a ``heapq`` of entries in any order.
* **Same-tick FIFO lane.**  A delay-0 event lands in a deque.  Because
  ``seq`` is globally monotonic, everything already queued for the
  current tick has a *smaller* seq than a freshly scheduled delay-0
  event, so the deque is sorted by construction.  It is always empty by
  the time the clock advances.
* **Monotone timer lane.**  A cancellable event (``schedule``) whose
  deadline is ``>=`` the lane's tail is appended to a second deque;
  any other deadline falls through to the heap, so this deque too is
  sorted by construction.  Retransmit timers are the traffic: the
  transport always arms them ``retransmit_timeout`` from now, a
  per-config constant, so their deadlines arrive already in order and
  hundreds of parked timers never enter the heap — O(1) arm instead of
  O(log n).  Nearly all of them are cancelled by a reply long before
  they are due; tombstones are purged lazily from the front, and a
  tombstone reaches the lane's front as soon as the timers armed before
  it are gone, not (as in the heap) only when its own deadline is the
  earliest left.

The lanes pay for their merge: against a heap-only kernel (every event
pushed to the heap, same goldens), ten interleaved pairs of ``python -m
bench`` at seed 7 on a 2-vCPU VM read median ``wall_s`` +6.7 % on
``paper_ring_p8`` and +7.3 % on ``scale_switched_n256`` without them
(slower in 9 and 10 of 10 pairs; every run is in ``records/``, the
``*_kernel_lanes_*.json`` files).

The lanes exist only while no :class:`Scheduler` is installed:
:meth:`Simulator._run_controlled` folds both deques back into the heap
(entries keep their seqs) and ``schedule`` then pushes straight to the
heap, so the schedule explorer sees one uniform queue.

One more wall-clock fast path rides on the invariant without changing
it: **``schedule_nocancel``**.  Most events are never cancelled; the
nocancel variants skip the per-event :class:`CancelHandle` allocation
by sharing one immortal handle.  (Slotted event records were measured
*slower* than plain tuples under ``heapq`` — tuple comparison is C,
``__lt__`` dispatch is not — so entries stay 6-tuples.)

Same-tick ordering is also the *only* nondeterminism a distributed
schedule has in this model, which makes it a controlled choice point:
installing a :class:`Scheduler` on :attr:`Simulator.scheduler` lets a
model checker (`repro.analysis.explore`) pick which of several events
tied at one tick fires first.  With no scheduler installed the loop is
untouched — seq order, bit-for-bit identical to the historical behavior.

Global deadlock is *detectable*: if the queue drains while registered
tasks are still blocked, :meth:`Simulator.run` raises
:class:`DeadlockError` listing the stuck tasks.  The coherence-protocol
stress tests rely on this to turn distributed deadlocks into loud,
shrinkable failures instead of hangs.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import partial
from typing import Any, Callable, Iterable, Sequence

__all__ = [
    "Simulator",
    "DeadlockError",
    "CancelHandle",
    "PendingEvent",
    "Scheduler",
    "make_simulator",
]


class DeadlockError(RuntimeError):
    """The event queue drained while tasks were still blocked."""

    def __init__(self, blocked: Iterable[Any]) -> None:
        self.blocked = list(blocked)
        names = ", ".join(str(t) for t in self.blocked) or "<unknown>"
        super().__init__(f"simulation deadlock: event queue empty with blocked tasks: {names}")


class CancelHandle:
    """Handle returned by :meth:`Simulator.schedule`; lets the caller
    cancel a pending event (used by retransmission timers)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


#: Shared handle for events nobody can cancel (``schedule_nocancel``).
#: One allocation for the lifetime of the process instead of one per event.
_NEVER_CANCELLED = CancelHandle()


class PendingEvent:
    """One live event offered to a :class:`Scheduler` at a choice point.

    ``seq`` is the event's global sequence number (the default tiebreak:
    the event with the lowest ``seq`` is what an uncontrolled run would
    fire).  ``label`` is the scheduling annotation — e.g.
    ``deliver:n1:p0:...`` for a message delivery — which is what lets an
    explorer decide whether two choices commute.  Call sites hand
    :meth:`Simulator.schedule` an *unevaluated* label, ``(fn, *args)``;
    the kernel renders it to ``fn(*args)`` at schedule time, and only
    when a :class:`Scheduler` is installed.  An event scheduled before
    one was installed is offered with ``label=None``.
    """

    __slots__ = ("seq", "label")

    def __init__(self, seq: int, label: str | None) -> None:
        self.seq = seq
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PendingEvent(seq={self.seq}, label={self.label!r})"


class Scheduler:
    """Same-tick ordering policy, consulted only when installed.

    :meth:`choose` is called whenever two or more live events are ready
    at the same tick; it returns the index (into ``events``, which is
    sorted by ``seq``) of the event to fire next.  The remaining events
    stay queued at the same tick with their original sequence numbers,
    so the scheduler is consulted again — with whatever new same-tick
    events the fired one scheduled — until the tick drains.  Returning 0
    everywhere reproduces the default seq order exactly.
    """

    def choose(self, now: int, events: Sequence[PendingEvent]) -> int:
        raise NotImplementedError


#: One queued event: ``(when, seq, handle, fn, args, label)``.  ``seq``
#: is unique, so comparing two entries never reaches the handle.
_Entry = tuple[int, int, CancelHandle, Callable[..., None], tuple[Any, ...], str | None]

#: What ``schedule*`` accepts as ``label``: a ready string, or ``(fn,
#: *args)`` to be rendered as ``fn(*args)`` only if a Scheduler will read it.
_Label = str | tuple[Any, ...] | None


class Simulator:
    """A deterministic discrete-event simulator with an integer clock."""

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[_Entry] = []
        #: Delay-0 events scheduled while no Scheduler is installed; always
        #: drained before the clock advances (see module docstring).  Same
        #: 6-tuple layout as the heap so entries can be folded back in.
        self._fifo: deque[_Entry] = deque()
        #: Cancellable events whose deadlines arrived in non-decreasing
        #: order while no Scheduler was installed (see module docstring).
        self._lane: deque[_Entry] = deque()
        self._seq: int = 0
        #: Number of events executed so far (profiling / regression metric).
        self.events_executed: int = 0
        #: Tasks that must be runnable or finished for the sim to be "done";
        #: registered by drivers so deadlock detection knows who is stuck,
        #: and dropped by them when a task finishes.  A dict used as an
        #: insertion-ordered set: a deadlock lists tasks in spawn order.
        self._watched: dict[Any, None] = {}
        #: First unhandled exception raised by a task, re-raised by run().
        self._failure: BaseException | None = None
        #: Same-tick ordering policy.  None (the default) keeps the
        #: historical seq order on the untouched fast path; the schedule
        #: explorer installs one to turn ties into choice points.
        self.scheduler: Scheduler | None = None

    def clock(self) -> Callable[[], int]:
        """A zero-argument callable reading the current simulated time.

        Observability layers (span tracers, timelines) bind this
        rather than holding the simulator, so they can stamp records
        without any ability to perturb the schedule.  It is a partial of
        the builtin ``getattr``, so a stamp enters no Python frame.
        """
        return partial(getattr, self, "now")

    # ------------------------------------------------------------------
    # scheduling

    def schedule(
        self, delay: int, fn: Callable[..., None], *args: Any, label: _Label = None
    ) -> CancelHandle:
        """Schedule ``fn(*args)`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative.  Returns a :class:`CancelHandle`.
        ``label`` annotates the event for a :class:`Scheduler`: a string,
        or ``(fn, *args)`` rendered here as ``fn(*args)``.  With no
        scheduler installed it is neither rendered nor kept, so passing
        one costs the caller a tuple, never a formatted string.
        """
        handle = CancelHandle()
        self._seq += 1
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        when = self.now + delay
        if self.scheduler is not None:
            if isinstance(label, tuple):
                label = label[0](*label[1:])
            heapq.heappush(self._heap, (when, self._seq, handle, fn, args, label))
            return handle
        entry = (when, self._seq, handle, fn, args, None)
        if delay == 0:
            self._fifo.append(entry)
        elif not self._lane or when >= self._lane[-1][0]:
            self._lane.append(entry)
        else:
            heapq.heappush(self._heap, entry)
        return handle

    def schedule_nocancel(
        self, delay: int, fn: Callable[..., None], *args: Any, label: _Label = None
    ) -> None:
        """:meth:`schedule` without the per-event handle allocation.

        For the ~90% of events nobody ever cancels (deliveries, wakeups,
        dispatches).  Fires in exactly the position :meth:`schedule`
        would have used — same seq, same ordering — but returns nothing.
        """
        self._seq += 1
        if self.scheduler is not None:
            if isinstance(label, tuple):
                label = label[0](*label[1:])
        elif delay == 0:
            self._fifo.append((self.now, self._seq, _NEVER_CANCELLED, fn, args, None))
            return
        else:
            label = None
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(
            self._heap, (self.now + delay, self._seq, _NEVER_CANCELLED, fn, args, label)
        )

    def schedule_at(
        self, when: int, fn: Callable[..., None], *args: Any, label: _Label = None
    ) -> CancelHandle:
        """Schedule ``fn(*args)`` at absolute time ``when`` (>= now)."""
        return self.schedule(when - self.now, fn, *args, label=label)

    def schedule_at_nocancel(
        self, when: int, fn: Callable[..., None], *args: Any, label: _Label = None
    ) -> None:
        """:meth:`schedule_at` without the per-event handle allocation."""
        self.schedule_nocancel(when - self.now, fn, *args, label=label)

    # ------------------------------------------------------------------
    # deadlock bookkeeping

    def watch(self, task: Any) -> None:
        """Register a task for deadlock detection.

        Watched objects must expose ``is_blocked`` (bool).
        """
        self._watched[task] = None

    def unwatch(self, task: Any) -> None:
        """Forget a finished task: it can no longer be stuck, and a run
        spawns one server task per request, so keeping them all would
        hand the cycle collector every one of them again and again."""
        self._watched.pop(task, None)

    def report_failure(self, exc: BaseException) -> None:
        """Record a fatal task failure; :meth:`run` re-raises it promptly."""
        if self._failure is None:
            self._failure = exc

    # ------------------------------------------------------------------
    # execution

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains (or ``until`` / ``max_events``).

        Returns the simulated time at which execution stopped.  Raises
        :class:`DeadlockError` if the queue drains with blocked tasks, and
        re-raises the first unhandled task exception.
        """
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be at least 1, got {max_events}")
        if self.scheduler is not None:
            return self._run_controlled(self.scheduler, until, max_events)
        heap = self._heap
        fifo = self._fifo
        lane = self._lane
        heappop = heapq.heappop
        budget = max_events if max_events is not None else -1
        while True:
            if self._failure is not None:
                exc, self._failure = self._failure, None
                raise exc
            # Skip cancelled tombstones at every front before peeking.
            while heap and heap[0][2].cancelled:
                heappop(heap)
            while lane and lane[0][2].cancelled:
                lane.popleft()
            while fifo and fifo[0][2].cancelled:
                fifo.popleft()
            # Pick the next live event by (time, seq) across the lanes:
            # first the earlier of the heap and timer-lane fronts ...
            queue: list[_Entry] | deque[_Entry] = heap
            if lane and not (heap and heap[0] < lane[0]):
                queue = lane
            # ... then that against the FIFO, whose entries are all at the
            # current tick: it beats them only if it is also at the
            # current tick with a lower seq.
            if fifo:
                when = self.now
                if not (queue and queue[0][0] == when and queue[0][1] < fifo[0][1]):
                    queue = fifo
            elif queue:
                when = queue[0][0]
            else:
                break
            if until is not None and when > until:
                # Stop the clock at `until`; pending events stay queued.
                # Fold the FIFO lane into the heap: entries carry their
                # true (time, seq), and `now` is about to move away from
                # the tick the lane's fast merge assumes.  (The timer
                # lane assumes nothing about `now` and stays as it is.)
                while fifo:
                    heapq.heappush(heap, fifo.popleft())
                self.now = until
                return until
            if queue is fifo:
                _when, _seq, _handle, fn, args, _label = fifo.popleft()
            elif queue is heap:
                _when, _seq, _handle, fn, args, _label = heappop(heap)
            else:
                _when, _seq, _handle, fn, args, _label = lane.popleft()
            self.now = when
            self.events_executed += 1
            fn(*args)
            if budget > 0:
                budget -= 1
                if budget == 0:
                    return self.now
        if self._failure is not None:
            exc, self._failure = self._failure, None
            raise exc
        blocked = [t for t in self._watched if getattr(t, "is_blocked", False)]
        if blocked and until is None:
            raise DeadlockError(blocked)
        return self.now

    def _run_controlled(
        self, scheduler: Scheduler, until: int | None, max_events: int | None
    ) -> int:
        """The run loop with same-tick ordering delegated to ``scheduler``.

        Mirrors :meth:`run` exactly except that when several live events
        share the front tick, the scheduler picks which fires; the rest
        are re-queued with their original sequence numbers.  Cancellation
        still wins against a same-tick fire: tombstones are filtered both
        while gathering the tick's batch and again after re-queueing (a
        chosen event that cancels a sibling prevents it from running).
        Most events tie with nothing, so the front entry is popped alone
        and a batch is gathered only when the next entry shares its tick.
        """
        heap = self._heap
        # Events scheduled before the scheduler was installed may sit in
        # the delay-0 FIFO or the timer lane; fold them into the heap
        # (original seqs) so the explorer sees one uniform queue.  While a
        # scheduler is installed, `schedule` adds to neither.
        for side in (self._fifo, self._lane):
            while side:
                heapq.heappush(heap, side.popleft())
        heappop, heappush = heapq.heappop, heapq.heappush
        budget = max_events
        while heap:
            if self._failure is not None:
                exc, self._failure = self._failure, None
                raise exc
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            entry = heappop(heap)
            if entry[2].cancelled:
                continue
            if heap and heap[0][0] == when:
                # A tie, unless the rest of the tick is tombstones.
                batch = [entry]
                while heap and heap[0][0] == when:
                    other = heappop(heap)
                    if not other[2].cancelled:
                        batch.append(other)
                if len(batch) > 1:
                    index = scheduler.choose(
                        when, [PendingEvent(e[1], e[5]) for e in batch]
                    )
                    if not 0 <= index < len(batch):
                        raise IndexError(
                            f"scheduler chose {index} of {len(batch)} events at t={when}"
                        )
                    entry = batch.pop(index)
                    for other in batch:
                        heappush(heap, other)
            self.now = when
            self.events_executed += 1
            entry[3](*entry[4])
            if budget is not None:
                budget -= 1
                if budget <= 0:
                    return self.now
        if self._failure is not None:
            exc, self._failure = self._failure, None
            raise exc
        blocked = [t for t in self._watched if getattr(t, "is_blocked", False)]
        if blocked and until is None:
            raise DeadlockError(blocked)
        return self.now

    def pending(self) -> int:
        """Number of events still queued (including cancelled tombstones)."""
        return len(self._heap) + len(self._fifo) + len(self._lane)

    def close(self) -> None:
        """Drop every queued event and watched task (their callbacks and
        generators refer back to whatever owns this simulator)."""
        for queue in (self._heap, self._fifo, self._lane, self._watched):
            queue.clear()


def make_simulator(kernel: None = None) -> Simulator:
    """``Simulator()``.  Kept only because the frozen ``bench/`` package
    imports it and calls ``make_simulator()`` / ``make_simulator(None)``;
    there is one kernel, so nothing is selected and everything else
    constructs :class:`Simulator` directly."""
    return Simulator()
