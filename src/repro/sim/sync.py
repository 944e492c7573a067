"""Simulation-level synchronisation primitives.

These are *kernel-internal* primitives used by protocol code running
inside the simulated machines (page-table locks, reply gates).  They are
distinct from `repro.sync`, which implements IVY's *client-visible*
synchronisation (eventcounts, binary locks) on top of the shared virtual
memory itself, exactly as the paper does.

All primitives are generator-style: callers use ``yield from
lock.acquire()`` and compose under any :class:`repro.sim.process.Driver`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.sim.process import Effect, Suspend, Task

__all__ = ["SimLock", "Gate"]


class SimLock:
    """A FIFO mutex for simulated tasks.

    Used for per-page table-entry locks: Li & Hudak's algorithms guard
    every fault handler and server with ``lock(PTable[p].lock)``.  A
    256-node run builds ~18k of them and only a few hundred are ever
    contended, so the waiter queue is created by the first contended
    :meth:`acquire`, not up front.
    """

    __slots__ = ("_held", "_waiters")

    def __init__(self) -> None:
        self._held = False
        self._waiters: deque[Task] | None = None

    @property
    def locked(self) -> bool:
        return self._held

    def acquire(self) -> Generator[Effect, Any, None]:
        """Acquire the lock, blocking in FIFO order."""
        if not self._held:
            self._held = True
            return
        if self._waiters is None:
            self._waiters = deque()
        yield Suspend(self._waiters.append)
        # Ownership was transferred to us by release(); nothing to do.

    def try_acquire(self) -> bool:
        """Non-blocking acquire; returns True on success."""
        if self._held:
            return False
        self._held = True
        return True

    def release(self) -> None:
        """Release; hands the lock directly to the oldest waiter."""
        if not self._held:
            raise RuntimeError("release of unheld SimLock")
        if self._waiters:
            waiter = self._waiters.popleft()
            # Lock stays held; ownership passes to the waiter.
            waiter.wake()
        else:
            self._held = False


class Gate:
    """A one-shot value gate: one task waits, another posts a value.

    This is the reply slot of the request/reply transport: the requester
    waits on the gate; the delivery event posts the reply payload.
    """

    __slots__ = ("_posted", "_value", "_waiter")

    def __init__(self) -> None:
        self._posted = False
        self._value: Any = None
        self._waiter: Task | None = None

    @property
    def posted(self) -> bool:
        return self._posted

    def wait(self) -> Generator[Effect, Any, Any]:
        """Wait for the value (returns immediately if already posted)."""
        if self._posted:
            return self._value
        if self._waiter is not None:
            raise RuntimeError("Gate already has a waiter")

        def register(task: Task) -> None:
            self._waiter = task

        value = yield Suspend(register)
        return value

    def post(self, value: Any = None) -> None:
        """Post the value, waking the waiter if present.  Idempotent posts
        are rejected — a double post indicates a protocol bug."""
        if self._posted:
            raise RuntimeError("Gate posted twice")
        self._posted = True
        self._value = value
        if self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.wake(value)
