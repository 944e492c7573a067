"""Unit tests for generator tasks, effects and the SimDriver."""

import weakref

import pytest

from repro.sim.kernel import DeadlockError, Simulator
from repro.sim.process import (
    Compute,
    Sleep,
    Suspend,
    SimDriver,
    Task,
    TaskFailure,
    TaskState,
    YieldCpu,
)


def make(sim=None):
    sim = sim or Simulator()
    return sim, SimDriver(sim)


def test_compute_advances_clock_and_returns_result():
    sim, driver = make()

    def job():
        yield Compute(100)
        yield Compute(50)
        return "done"

    task = driver.spawn(job(), "job")
    sim.run()
    assert task.result == "done"
    assert task.state is TaskState.DONE
    assert sim.now == 150


def test_sleep_behaves_like_delay_under_sim_driver():
    sim, driver = make()

    def job():
        yield Sleep(75)
        return sim.now

    task = driver.spawn(job(), "sleeper")
    sim.run()
    assert task.result == 75


def test_suspend_parks_until_wake_and_receives_value():
    sim, driver = make()
    parked = []

    def job():
        got = yield Suspend(parked.append)
        return got

    task = driver.spawn(job(), "waiter")
    sim.schedule(10, lambda: parked[0].wake("payload"))
    sim.run()
    assert task.result == "payload"
    assert parked[0] is task


def test_yield_cpu_interleaves_tasks():
    sim, driver = make()
    order = []

    def job(tag):
        for i in range(3):
            order.append((tag, i))
            yield YieldCpu()

    driver.spawn(job("a"), "a")
    driver.spawn(job("b"), "b")
    sim.run()
    assert order == [("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]


def test_yield_from_composition_and_fast_path():
    sim, driver = make()

    def helper_no_yield():
        return 42
        yield  # pragma: no cover - makes this a generator

    def helper_with_compute():
        yield Compute(10)
        return 7

    def job():
        a = yield from helper_no_yield()
        b = yield from helper_with_compute()
        return a + b

    task = driver.spawn(job(), "composed")
    sim.run()
    assert task.result == 49
    assert sim.now == 10


def test_unjoined_failure_escalates_to_run():
    sim, driver = make()

    def job():
        yield Compute(5)
        raise ValueError("boom")

    driver.spawn(job(), "bad")
    with pytest.raises(TaskFailure) as exc_info:
        sim.run()
    assert isinstance(exc_info.value.__cause__, ValueError)


def test_joined_failure_is_delivered_to_joiner_not_run():
    sim, driver = make()
    seen = []

    def job():
        yield Compute(5)
        raise ValueError("boom")

    task = driver.spawn(job(), "bad")
    task.on_done(lambda t: seen.append(t.error))
    sim.run()
    assert isinstance(seen[0], ValueError)


def test_on_done_fires_immediately_for_finished_task():
    sim, driver = make()

    def job():
        return 1
        yield  # pragma: no cover

    task = driver.spawn(job(), "quick")
    sim.run()
    hits = []
    task.on_done(hits.append)
    assert hits == [task]


def test_non_effect_yield_is_an_error():
    sim, driver = make()

    def job():
        yield "not an effect"

    driver.spawn(job(), "bad-yield")
    with pytest.raises(TaskFailure):
        sim.run()


def test_negative_durations_rejected():
    with pytest.raises(ValueError):
        Compute(-1)
    with pytest.raises(ValueError):
        Sleep(-5)


def test_suspended_task_counts_as_blocked_for_deadlock():
    sim, driver = make()

    def job():
        yield Suspend()

    driver.spawn(job(), "forever")
    with pytest.raises(DeadlockError):
        sim.run()


def test_finished_task_is_not_retained_by_the_kernel():
    """A run spawns one server task per request; the kernel's deadlock
    watch list must not keep every one of them alive until the cluster
    dies.  No ``gc.collect()``: a task that returned is in no cycle."""
    sim, driver = make()

    def job():
        yield Compute(10)

    task = driver.spawn(job(), "short")
    sim.run()
    assert task.done
    ref = weakref.ref(task)
    del task
    assert ref() is None


def test_deadlock_names_blocked_tasks_in_spawn_order_after_others_finished():
    sim, driver = make()

    def short():
        yield Compute(5)

    def stuck():
        yield Compute(20)
        yield Suspend()

    tasks = [
        driver.spawn(gen(), f"t{i}")
        for i, gen in enumerate([stuck, short, stuck, short, short, stuck])
    ]
    with pytest.raises(DeadlockError) as excinfo:
        sim.run()
    assert excinfo.value.blocked == [tasks[0], tasks[2], tasks[5]]


def test_resume_on_a_finished_task_is_a_no_op():
    """A wake that lands after the task ended (here: a second resume
    event queued for the same tick) leaves it alone."""
    sim, driver = make()

    def job():
        yield Suspend()
        return "first"

    task = driver.spawn(job(), "woken-twice")
    sim.schedule(5, task.resume, "first")
    sim.schedule(5, task.resume, "late")
    sim.run()
    assert task.done and task.result == "first"
    task.resume("later still")
    assert task.state is TaskState.DONE and task.error is None


def test_task_events_call_the_task_directly(monkeypatch):
    """Every event that continues a task calls ``Task.resume``, a system
    task's first step included: no driver method sits between the
    kernel and the generator.  The scheduler's own events are the
    ready-queue ones (``make_ready`` after a sleep, ``_dispatch``)."""
    from repro.api.ivy import Ivy
    from repro.apps.dotprod import DotProductApp
    from repro.config import ClusterConfig
    from repro.proc.scheduler import NodeScheduler

    fired = set()
    for name in ("schedule", "schedule_nocancel", "schedule_at", "schedule_at_nocancel"):
        original = getattr(Simulator, name)

        def spy(self, when, fn, *args, original=original, **kw):
            fired.add(getattr(fn, "__qualname__", ""))
            return original(self, when, fn, *args, **kw)

        monkeypatch.setattr(Simulator, name, spy)
    app = DotProductApp(2, n=4096, seed=7)
    app.check(Ivy(ClusterConfig(nodes=2)).run(app.main))
    drivers = {"Task", "SimDriver", "NodeScheduler", "Driver"}
    assert {name for name in fired if name.split(".")[0] in drivers} == {
        "Task.resume", "NodeScheduler._dispatch",
    }
    assert not hasattr(Task, "step")
    for cls in (SimDriver, NodeScheduler):
        assert not hasattr(cls, "_resume") and not hasattr(cls, "_first_step")
