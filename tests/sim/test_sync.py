"""Unit tests for simulation-level locks and the transport's reply gate
(the ``_Pending`` record a requester parks on)."""

import inspect

import pytest

from repro.sim.kernel import Simulator
from repro.net.packet import Message
from repro.net.transport import _Pending
from repro.sim.process import Compute, SimDriver, Suspend
from repro.sim.sync import SimLock
from repro.svm.page import PageTableEntry


def make():
    sim = Simulator()
    return sim, SimDriver(sim)


def test_lock_mutual_exclusion_and_fifo_order():
    sim, driver = make()
    lock = SimLock()
    order = []

    def job(tag):
        yield from lock.acquire()
        order.append((tag, "in", sim.now))
        yield Compute(10)
        order.append((tag, "out", sim.now))
        lock.release()

    for tag in ("a", "b", "c"):
        driver.spawn(job(tag), tag)
    sim.run()
    # Critical sections never overlap and are entered in arrival order.
    assert order == [
        ("a", "in", 0),
        ("a", "out", 10),
        ("b", "in", 10),
        ("b", "out", 20),
        ("c", "in", 20),
        ("c", "out", 30),
    ]
    # The queue exists once someone waited; it is drained at the end and
    # the last release leaves the lock free.
    assert lock._waiters is not None and not lock._waiters
    assert not lock.locked


def test_uncontended_lock_owns_no_queue():
    """Most page locks are never contended; they must not each carry an
    empty deque (~18k of them on a 256-node pde3d run)."""
    assert SimLock()._waiters is None
    assert PageTableEntry(initial_owner=False, default_owner=0).lock._waiters is None
    lock = SimLock()
    assert lock.try_acquire()
    lock.release()
    assert lock._waiters is None


def test_lock_has_no_holder_slot():
    """Nothing records the holding task, so no lock carries a slot for it."""
    assert "holder" not in SimLock.__slots__
    assert "holder" not in inspect.getsource(SimLock)
    with pytest.raises(AttributeError):
        SimLock().holder = None


def test_try_acquire():
    lock = SimLock()
    assert lock.try_acquire()
    assert not lock.try_acquire()
    lock.release()
    assert lock.try_acquire()


def test_release_of_unheld_lock_raises():
    with pytest.raises(RuntimeError):
        SimLock().release()


def reply_gate():
    return _Pending(Message(0, 1, "req", "op", 0, 1, None, 32), want=1)


def test_gate_wait_then_post():
    sim, driver = make()
    gate = reply_gate()

    def waiter():
        value = yield Suspend(gate.park)
        return value

    task = driver.spawn(waiter(), "w")
    sim.schedule(5, gate.post, "reply")
    sim.run()
    assert task.result == "reply"


def test_gate_post_before_wait_returns_immediately():
    sim, driver = make()
    gate = reply_gate()
    gate.post(99)

    def waiter():
        value = yield Suspend(gate.park)
        return value

    task = driver.spawn(waiter(), "w")
    sim.run()
    assert task.result == 99
    assert sim.now == 0


def test_gate_double_post_rejected():
    gate = reply_gate()
    gate.post(1)
    with pytest.raises(RuntimeError, match="posted twice"):
        gate.post(2)
