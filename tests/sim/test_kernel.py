"""Unit tests for the discrete-event simulation kernel.

The `(when, seq)` total order is the repo's reproducibility invariant —
every committed golden schedule assumes it — so besides the directed
cases the kernel's three lanes are checked against a single-``heapq``
reference model over random programs: the cheap, adversarial version of
the 42 fixture gates.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import (
    CancelHandle,
    DeadlockError,
    PendingEvent,
    Scheduler,
    Simulator,
)

#: The transport's retransmit timeout: the deadline the timer lane is for.
TIMEOUT = 500_000_000


class FirstChoice(Scheduler):
    """Always index 0 — reproduces the default seq order."""

    def choose(self, now, events):
        return 0


class LastChoice(Scheduler):
    """Always the highest seq — the maximally reordered schedule."""

    def choose(self, now, events):
        return len(events) - 1


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.schedule(5, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_clock_advances_monotonically():
    sim = Simulator()
    stamps = []
    sim.schedule(10, lambda: stamps.append(sim.now))
    sim.schedule(10, lambda: sim.schedule(0, lambda: stamps.append(sim.now)))
    sim.schedule(25, lambda: stamps.append(sim.now))
    sim.run()
    assert stamps == [10, 10, 25]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda: None)


def test_cancel_handle_suppresses_event():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_run_until_stops_clock_and_preserves_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(10, fired.append, "early")
    sim.schedule(100, fired.append, "late")
    sim.run(until=50)
    assert fired == ["early"]
    assert sim.now == 50
    sim.run()
    assert fired == ["early", "late"]
    assert sim.now == 100


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    hits = []

    def outer():
        hits.append(("outer", sim.now))
        sim.schedule(7, inner)

    def inner():
        hits.append(("inner", sim.now))

    sim.schedule(3, outer)
    sim.run()
    assert hits == [("outer", 3), ("inner", 10)]


def test_events_executed_counter():
    sim = Simulator()
    for _ in range(5):
        sim.schedule(1, lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_deadlock_detection_reports_blocked_tasks():
    sim = Simulator()

    class Stuck:
        is_blocked = True

        def __str__(self):
            return "stuck-task"

    sim.watch(Stuck())
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError, match="stuck-task"):
        sim.run()


def test_no_deadlock_when_watched_tasks_unblocked():
    sim = Simulator()

    class Fine:
        is_blocked = False

    sim.watch(Fine())
    sim.schedule(1, lambda: None)
    assert sim.run() == 1


# ----------------------------------------------------------------------
# same-tick cancellation races


def _cancel_race(scheduler):
    """Event ``a`` fires at t=5 and cancels its same-tick sibling ``b``."""
    sim = Simulator()
    sim.scheduler = scheduler
    fired = []
    handles = {}

    def a():
        fired.append("a")
        handles["b"].cancel()

    sim.schedule(5, a)
    handles["b"] = sim.schedule(5, fired.append, "b")
    sim.run()
    return fired


def test_cancellation_racing_same_tick_fire_default_mode():
    assert _cancel_race(None) == ["a"]


def test_cancellation_racing_same_tick_fire_controlled_mode():
    """In controlled mode the tick's batch is gathered *before* the
    chosen event runs; a sibling cancelled by the fired event must still
    be suppressed when it comes back off the heap."""
    assert _cancel_race(FirstChoice()) == ["a"]


def test_reordered_cancellation_kills_the_earlier_sibling():
    """The scheduler fires the later-scheduled event first; if it
    cancels the earlier one, the earlier event must never run even
    though it was already popped into the batch."""
    sim = Simulator()
    sim.scheduler = LastChoice()
    fired = []
    handle_a = sim.schedule(5, fired.append, "a")

    def b():
        fired.append("b")
        handle_a.cancel()

    sim.schedule(5, b)
    sim.run()
    assert fired == ["b"]


def test_controlled_mode_rejects_out_of_range_choice():
    class Bad(Scheduler):
        def choose(self, now, events):
            return len(events)  # one past the end

    sim = Simulator()
    sim.scheduler = Bad()
    sim.schedule(1, lambda: None)
    sim.schedule(1, lambda: None)
    with pytest.raises(IndexError):
        sim.run()


# ----------------------------------------------------------------------
# deadlock reporting


class _Stuck:
    is_blocked = True

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


@pytest.mark.parametrize("scheduler", [None, FirstChoice()])
def test_deadlock_error_lists_every_blocked_task(scheduler):
    """The error must name *all* blocked watched tasks (not just the
    first) and exclude the runnable ones — that list is what the
    schedule explorer records as the deadlock's witness."""
    sim = Simulator()
    sim.scheduler = scheduler
    stuck = [_Stuck("worker-1"), _Stuck("worker-2"), _Stuck("worker-3")]

    class Fine:
        is_blocked = False

    for task in stuck:
        sim.watch(task)
    sim.watch(Fine())
    sim.schedule(1, lambda: None)
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert excinfo.value.blocked == stuck
    for name in ("worker-1", "worker-2", "worker-3"):
        assert name in str(excinfo.value)


# ----------------------------------------------------------------------
# run(max_events=...)


@pytest.mark.parametrize("scheduler", [None, FirstChoice()])
@pytest.mark.parametrize("max_events", [0, -1])
def test_max_events_below_one_is_rejected(scheduler, max_events):
    """0 used to mean "unbounded" on the default path and "exactly one
    event" under a scheduler; both paths now refuse it up front."""
    sim = Simulator()
    sim.scheduler = scheduler
    sim.schedule(1, lambda: None)
    with pytest.raises(ValueError, match="max_events"):
        sim.run(max_events=max_events)
    assert sim.events_executed == 0 and sim.pending() == 1


@pytest.mark.parametrize("scheduler", [None, FirstChoice()])
def test_max_events_stops_after_exactly_that_many(scheduler):
    sim = Simulator()
    sim.scheduler = scheduler
    for delay in (1, 2, 3):
        sim.schedule(delay, lambda: None)
    assert sim.run(max_events=2) == 2
    assert sim.events_executed == 2 and sim.pending() == 1


# ----------------------------------------------------------------------
# the three lanes against a one-heap reference model


class HeapReference:
    """The kernel's contract in ~20 lines: one ``heapq``, pop by
    ``(when, seq)``, skip cancelled.  No lanes, no fast paths."""

    def __init__(self):
        self.now = 0
        self.events_executed = 0
        self._heap = []
        self._seq = 0

    def schedule(self, delay, fn, *args):
        self._seq += 1
        handle = CancelHandle()
        heapq.heappush(self._heap, (self.now + delay, self._seq, handle, fn, args))
        return handle

    schedule_nocancel = schedule

    def schedule_at(self, when, fn, *args):
        return self.schedule(when - self.now, fn, *args)

    def run(self, until=None):
        while self._heap:
            when, _seq, handle, fn, args = self._heap[0]
            if until is not None and when > until and not handle.cancelled:
                self.now = until
                return
            heapq.heappop(self._heap)
            if not handle.cancelled:
                self.now = when
                self.events_executed += 1
                fn(*args)


# Deltas that make the timer lane matter: the retransmit timeout after a
# short deadline (lane append), a shorter deadline after a longer one
# (heap fallback), equal deadlines (ties inside the lane and across
# lanes), and delay 0 (the FIFO lane).
DELTAS = st.one_of(
    st.integers(0, 3000),
    st.sampled_from(
        [0, 1, 1_000_000, TIMEOUT - 1, TIMEOUT, TIMEOUT, TIMEOUT + 1, 3 * TIMEOUT]
    ),
)


@st.composite
def kernel_programs(draw):
    """(top_ops, until) — ops may nest two levels into callbacks."""

    def op(depth):
        kind = draw(
            st.sampled_from(
                ["schedule", "schedule", "nocancel", "schedule_at", "cancel"]
            )
        )
        if kind == "cancel":
            return ("cancel", draw(st.integers(0, 100)))
        nested = []
        if depth < 2 and draw(st.booleans()):
            nested = [op(depth + 1) for _ in range(draw(st.integers(1, 3)))]
        return (kind, draw(DELTAS), draw(st.integers(0, 10**6)), nested)

    top = [op(0) for _ in range(draw(st.integers(1, 25)))]
    until = draw(st.one_of(st.none(), DELTAS))
    return top, until


def _interpret(sim, top_ops, until):
    """Run one program; return the (time, tag) execution log."""
    log = []
    handles = []

    def fire(tag, nested):
        log.append((sim.now, tag))
        for op in nested:
            apply_op(op)

    def apply_op(op):
        if op[0] == "cancel":
            # Index from the front, the back or the middle of what has
            # been armed so far: lane front, lane tail and mid-lane.
            if handles:
                handles[op[1] % len(handles)].cancel()
            return
        kind, delta, tag, nested = op
        if kind == "schedule":
            handles.append(sim.schedule(delta, fire, tag, nested))
        elif kind == "nocancel":
            sim.schedule_nocancel(delta, fire, tag, nested)
        else:
            handles.append(sim.schedule_at(sim.now + delta, fire, tag, nested))

    for op in top_ops:
        apply_op(op)
    if until is not None:
        # Pause mid-run, then keep scheduling: new events may now land
        # *earlier* than everything parked in the lane.
        sim.run(until=until)
        for op in top_ops:
            apply_op(op)
    sim.run()
    return log, sim.now, sim.events_executed


@given(kernel_programs())
# Capped at 50 examples: drawing the nested programs is most of the cost,
# and the lane edges each have a directed regression below.
@settings(max_examples=50, deadline=None)
def test_kernel_replays_single_heap_reference_exactly(program):
    top_ops, until = program
    sim = Simulator()
    assert _interpret(sim, top_ops, until) == _interpret(
        HeapReference(), top_ops, until
    )
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# directed regressions: the lane edges, one by one


def test_lane_takes_monotone_deadlines_and_heap_takes_the_rest():
    """Where an event waits is unobservable except through `_lane`; pin
    it once so a refactor cannot silently send every timer to the heap
    (correct, but the reason the lane exists would be gone)."""
    sim = Simulator()
    order = []
    sim.schedule(1_000_000, order.append, "1ms")  # lane (empty)
    sim.schedule(TIMEOUT, order.append, "timeout")  # lane (>= tail)
    sim.schedule(TIMEOUT, order.append, "timeout-tie")  # lane (== tail)
    sim.schedule(2_000_000, order.append, "2ms")  # heap (< tail)
    sim.schedule_nocancel(3 * TIMEOUT, order.append, "nocancel")  # heap
    assert len(sim._lane) == 3 and len(sim._heap) == 2
    assert sim.pending() == 5
    sim.run()
    assert order == ["1ms", "2ms", "timeout", "timeout-tie", "nocancel"]
    assert sim.pending() == 0


def test_delay_zero_fifo_lane_orders_after_earlier_seq_sibling():
    sim = Simulator()
    order = []
    sim.schedule(5, lambda: sim.schedule(0, order.append, "zero"))
    sim.schedule(5, order.append, "sibling")
    sim.run()
    assert order == ["sibling", "zero"]


def test_same_tick_cancel_race_inside_the_lane():
    """Both timers share a deadline, so both sit in the lane; the first
    fires and cancels the second, which must be purged, not fired."""
    sim = Simulator()
    fired = []
    handles = {}

    def a():
        fired.append("a")
        handles["b"].cancel()

    sim.schedule(TIMEOUT, a)
    handles["b"] = sim.schedule(TIMEOUT, fired.append, "b")
    assert len(sim._lane) == 2
    sim.run()
    assert fired == ["a"]
    assert sim.pending() == 0


def test_cancel_at_lane_front_and_middle():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(TIMEOUT + i, fired.append, i) for i in range(5)]
    handles[0].cancel()  # front: purged before the first peek
    handles[2].cancel()  # middle: purged when it reaches the front
    sim.run()
    assert fired == [1, 3, 4]
    assert sim.now == TIMEOUT + 4


def test_until_then_earlier_event_fires_before_the_parked_lane():
    """After run(until) parks the clock, a new event earlier than the
    lane's tail falls to the heap and must still fire first."""
    sim = Simulator()
    order = []
    sim.schedule(TIMEOUT, order.append, "late")
    sim.run(until=1000)
    sim.schedule(1, order.append, "early")
    sim.run()
    assert order == ["early", "late"]
    assert sim.now == TIMEOUT


def test_far_future_timer_cancel_never_fires():
    """A cancelled timer must not advance the clock to its deadline."""
    sim = Simulator()
    fired = []
    handle = sim.schedule(TIMEOUT, fired.append, "timeout")
    sim.schedule(10, lambda: handle.cancel())
    sim.run()
    assert fired == []
    assert sim.now == 10


def test_scheduler_installed_mid_run_sees_lane_entries_with_original_seqs():
    """Timers parked in the lane before a scheduler is installed are
    folded into the one queue the explorer sees, seqs intact, and tie
    with events scheduled afterwards at the same tick."""
    seen = []

    class Spy(Scheduler):
        def choose(self, now, events):
            seen.append((now, [e.seq for e in events]))
            return len(events) - 1

    sim = Simulator()
    order = []
    sim.schedule(TIMEOUT, order.append, "lane-1")  # seq 1
    sim.schedule(TIMEOUT, order.append, "lane-2")  # seq 2
    sim.schedule(10, order.append, "heap")  # seq 3
    sim.run(until=100)
    sim.scheduler = Spy()
    sim.schedule(TIMEOUT - 100, order.append, "controlled")  # seq 4
    sim.run()
    assert seen == [(TIMEOUT, [1, 2, 4]), (TIMEOUT, [1, 2])]
    assert order == ["heap", "controlled", "lane-2", "lane-1"]
    assert sim.pending() == 0


# ----------------------------------------------------------------------
# the controlled loop against the drain / re-push loop it replaced


class DrainRepushSimulator(Simulator):
    """The controlled run loop as it was before it popped one entry at a
    time: every iteration drains the whole front tick into a list and
    pushes back what did not fire.  Kept here, verbatim, as the
    reference the differential test below holds the kernel to."""

    def _run_controlled(self, scheduler, until, max_events):
        heap = self._heap
        for side in (self._fifo, self._lane):
            while side:
                heapq.heappush(heap, side.popleft())
        budget = max_events
        while heap:
            if self._failure is not None:
                exc, self._failure = self._failure, None
                raise exc
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            batch = []
            while heap and heap[0][0] == when:
                entry = heapq.heappop(heap)
                if not entry[2].cancelled:
                    batch.append(entry)
            if not batch:
                continue
            if len(batch) == 1:
                index = 0
            else:
                index = scheduler.choose(
                    when, [PendingEvent(e[1], e[5]) for e in batch]
                )
                if not 0 <= index < len(batch):
                    raise IndexError(
                        f"scheduler chose {index} of {len(batch)} events at t={when}"
                    )
            chosen = batch[index]
            for pos, entry in enumerate(batch):
                if pos != index:
                    heapq.heappush(heap, entry)
            _when, _seq, _handle, fn, args, _label = chosen
            self.now = when
            self.events_executed += 1
            fn(*args)
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


class SeededChoice(Scheduler):
    """A random scheduler that logs everything it was offered."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.offered = []

    def choose(self, now, events):
        self.offered.append((now, [(e.seq, e.label) for e in events]))
        return self.rng.randrange(len(events))


def _run_tie_program(sim_class, seed):
    """One random program, heavy on ties: events land on a handful of
    ticks, spawn more (often at delay 0), and cancel each other — by
    preference a sibling still queued at the current tick.  It is run in
    three legs (``until``, ``max_events``, to the end) and returns
    everything observable, plus how often a same-tick cancel happened."""
    rng = random.Random(seed)
    sim = sim_class()
    fired, live, stats = [], {}, {"armed": 0, "sibling_cancels": 0}

    def arm(delay, depth):
        eid = stats["armed"] = stats["armed"] + 1
        if rng.random() < 0.3:  # the shared never-cancelled handle
            sim.schedule_nocancel(delay, fire, eid, depth, label=f"e{eid}")
        else:
            handle = sim.schedule(delay, fire, eid, depth, label=f"e{eid}")
            live[eid] = (sim.now + delay, handle)

    def fire(eid, depth):
        fired.append((sim.now, eid))
        live.pop(eid, None)
        if depth < 3:
            for _ in range(rng.choice((0, 0, 1, 2))):
                arm(rng.choice((0, 0, 0, 3, 7)), depth + 1)
        if live and rng.random() < 0.5:
            siblings = [e for e, (when, _) in live.items() if when == sim.now]
            victim = rng.choice(siblings or list(live))
            stats["sibling_cancels"] += bool(siblings)
            live.pop(victim)[1].cancel()

    for _ in range(rng.randrange(2, 5)):  # before any scheduler: the lanes
        arm(rng.choice((0, 3, 7)), 0)
    sim.scheduler = scheduler = SeededChoice(seed)
    for _ in range(rng.randrange(4, 10)):
        arm(rng.choice((0, 3, 3, 7, 7, 10)), 0)
    legs = []
    for kwargs in ({"until": rng.randrange(1, 12)}, {"max_events": 3}, {}):
        stopped = sim.run(**kwargs)
        legs.append((stopped, sim.now, sim.events_executed, sim.pending()))
    return fired, scheduler.offered, legs, stats["sibling_cancels"]


def test_controlled_loop_fires_exactly_what_the_drain_repush_loop_fired():
    """Differential gate for the one-entry-at-a-time controlled loop:
    same fire order, same batches offered (seqs and labels), same stop
    time / event count / queue length after every leg — over programs
    that do tie (most choice points offer 2+ events by construction) and
    do cancel same-tick siblings between a choice and the next gather."""
    ties = sibling_cancels = 0
    for seed in range(300):
        new = _run_tie_program(Simulator, seed)
        old = _run_tie_program(DrainRepushSimulator, seed)
        assert new == old, f"seed {seed}"
        ties += len(new[1])
        sibling_cancels += new[3]
    assert ties > 1000 and sibling_cancels > 100


# ----------------------------------------------------------------------
# scheduling labels: rendered by the kernel, only for a Scheduler


def test_label_thunk_is_rendered_only_for_an_installed_scheduler():
    """Call sites pass ``label=(fn, *args)``; the kernel calls
    ``fn(*args)`` at schedule time iff a Scheduler is installed.  An
    event scheduled before that is offered unlabelled."""
    rendered = []

    def render(tag):
        rendered.append(tag)
        return f"label:{tag}"

    sim = Simulator()
    sim.schedule(5, lambda: None, label=(render, "cancellable"))
    sim.schedule_nocancel(5, lambda: None, label=(render, "nocancel"))
    sim.schedule_nocancel(0, lambda: None, label=(render, "fifo"))
    sim.schedule_at_nocancel(5, lambda: None, label=(render, "at"))
    sim.run()
    assert rendered == []

    offered = []

    class Spy(Scheduler):
        def choose(self, now, events):
            offered.append([e.label for e in events])
            return 0

    sim = Simulator()
    sim.schedule(5, lambda: None, label=(render, "early"))
    sim.scheduler = Spy()
    sim.schedule(5, lambda: None, label=(render, "a"))
    sim.schedule_nocancel(5, lambda: None, label="plain")
    sim.schedule_at_nocancel(5, lambda: None, label=(render, "b"))
    sim.schedule_nocancel(5, lambda: None)
    assert rendered == ["a", "b"]  # at schedule time, not at the choice point
    sim.run()
    assert offered[0] == [None, "label:a", "plain", "label:b", None]
    assert rendered == ["a", "b"]
