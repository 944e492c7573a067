"""Unit tests for the per-node LIFO process dispatcher."""

import pytest

from repro.config import ClusterConfig
from repro.metrics.collect import Counters
from repro.proc.pcb import ProcState
from repro.proc.scheduler import NodeScheduler
from repro.sim.kernel import Simulator
from repro.sim.process import Compute, Sleep, Suspend, YieldCpu


def make(context_switch=0):
    sim = Simulator()
    config = ClusterConfig(nodes=1).with_cpu(context_switch=context_switch)
    sched = NodeScheduler(sim, 0, config, Counters())
    return sim, sched


def test_one_process_at_a_time_no_preemption():
    sim, sched = make()
    order = []

    def job(tag):
        order.append((tag, "start", sim.now))
        yield Compute(100)
        order.append((tag, "end", sim.now))

    sched.spawn(job("a"), "a")
    sched.spawn(job("b"), "b")
    sim.run()
    # Compute does not release the CPU: a runs to completion before b.
    tags = [t for t, _, _ in order]
    assert tags in (["a", "a", "b", "b"], ["b", "b", "a", "a"])


def test_lifo_ready_queue():
    sim, sched = make()
    started = []

    def job(tag):
        started.append(tag)
        yield Compute(10)

    # Spawn three at the same instant; LIFO runs the most recent first.
    sched.spawn(job("first"), "first")
    sched.spawn(job("second"), "second")
    sched.spawn(job("third"), "third")
    sim.run()
    assert started == ["third", "second", "first"]


def test_blocking_hands_cpu_to_next_ready():
    sim, sched = make()
    order = []

    def sleeper():
        order.append(("sleeper", "pre", sim.now))
        yield Sleep(1_000)
        order.append(("sleeper", "post", sim.now))

    def worker():
        order.append(("worker", "run", sim.now))
        yield Compute(100)

    sched.spawn(sleeper(), "sleeper")
    sched.spawn(worker(), "worker")
    sim.run()
    # sleeper runs first (LIFO puts worker behind it... actually worker is
    # pushed after, so worker runs first), then the other; the key property:
    # while one sleeps, the other computes.
    events = {(tag, what): t for tag, what, t in order}
    assert events[("worker", "run")] < events[("sleeper", "post")]


def test_suspend_and_external_wake():
    sim, sched = make()

    def waiter():
        value = yield Suspend()
        return value

    pcb = sched.spawn(waiter(), "w")
    sim.schedule(500, lambda: sched.wake(pcb.task, "go"))
    sim.run()
    assert pcb.task.result == "go"
    assert pcb.state is ProcState.DONE


def test_yield_cpu_round_robins():
    sim, sched = make()
    order = []

    def job(tag):
        for i in range(2):
            order.append(f"{tag}{i}")
            yield YieldCpu()

    sched.spawn(job("a"), "a")
    sched.spawn(job("b"), "b")
    sim.run()
    # LIFO start: b first, then yields alternate.
    assert order == ["b0", "a0", "b1", "a1"]


def test_context_switch_cost_charged():
    sim, sched = make(context_switch=1_000)

    def job():
        yield Compute(0)

    sched.spawn(job(), "j")
    sim.run()
    assert sim.now == 1_000


def test_process_count_and_load_byte():
    sim, sched = make()

    def job():
        yield Suspend()

    pcbs = [sched.spawn(job(), f"j{i}") for i in range(3)]
    assert sched.process_count() == 3
    assert sched.load_byte() == 3
    observed = {}
    sim.schedule(100, lambda: observed.update(count=sched.process_count()))
    for pcb in pcbs:
        sim.schedule(200, lambda pcb=pcb: sched.wake(pcb.task))
    sim.run()
    assert observed["count"] == 3  # all suspended but alive
    assert sched.process_count() == 0
    assert sched.idle


def test_make_ready_idempotent_against_spurious_wakes():
    sim, sched = make()

    def job():
        yield Suspend()
        yield Compute(10)
        return "done"

    pcb = sched.spawn(job(), "j")
    sim.schedule(100, lambda: sched.wake(pcb.task))
    sim.schedule(100, lambda: sched.wake(pcb.task))  # duplicate wake
    sim.run()
    assert pcb.task.result == "done"


def test_steal_ready_takes_coldest_migratable():
    sim, sched = make()

    def job():
        yield Compute(10)

    sched.spawn(job(), "cold")
    pinned = sched.spawn(job(), "pinned")
    pinned.migratable = False
    sched.spawn(job(), "hot")
    # Queue (front..back): hot, pinned, cold — steal should take "cold".
    stolen = sched.steal_ready()
    assert stolen.name == "cold"
    assert stolen.state is ProcState.MIGRATING
    assert all(p.name != "cold" for p in sched.ready)


def test_steal_ready_respects_migratable_flag():
    sim, sched = make()

    def job():
        yield Compute(10)

    pcb = sched.spawn(job(), "pinned")
    pcb.migratable = False
    assert sched.steal_ready() is None


def test_process_count_equals_the_registry_scan_at_every_step():
    """`process_count` is a maintained counter (it is read for every
    outgoing message); pin it to the scan it replaced through ready,
    blocked, finished, migrated-away and adopted processes -- including
    one that finishes at its destination before the source disowns it."""
    sim = Simulator()
    config = ClusterConfig(nodes=2).with_cpu(context_switch=5)
    here = NodeScheduler(sim, 0, config, Counters())
    there = NodeScheduler(sim, 1, config, Counters())

    def check():
        for sched in (here, there):
            assert sched.process_count() == sum(
                1 for pcb in sched.registry.values() if not pcb.done
            )

    def short(i):
        if i % 3 == 0:
            yield Sleep(40)
        elif i % 3 == 1:
            yield Compute(10)

    def step(events):
        for _ in range(events):
            if sim.pending():
                sim.run(max_events=1)
                check()

    first = None
    for i in range(200):
        pcb = here.spawn(short(i), f"p{i}")
        first = first or pcb
        check()
        if i % 10 == 9:
            # The migration hand-off: the destination adopts, and the
            # source disowns only once the reply is back -- by which
            # time the process may have run to completion over there.
            moved = here.steal_ready()
            assert moved is not None
            there.adopt(moved)
            check()
            step(8 if i % 20 == 9 else 0)
            here.disown(moved, 1)
            check()
        if i % 25 == 24 and (back := there.steal_ready()) is not None:
            here.adopt(back)
            check()
            there.disown(back, 0)
            check()
        step(3)
    assert here.process_count() > 1  # spawns outpaced the three steps
    step(10**6)
    assert here.process_count() == there.process_count() == 0
    # ... and the kernel's deadlock watch let each one go where it finished.
    assert not sim._watched
    # Finished processes stay resolvable (a late wake-up finds a PCB).
    assert first.done and here.lookup(first.pid) == (first, None)
