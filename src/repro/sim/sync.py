"""Simulation-level synchronisation: the FIFO task lock.

:class:`SimLock` is a *kernel-internal* primitive used by protocol code
running inside the simulated machines (the page-table lock; the
transport's reply slot is its own ``_Pending`` record, see
:mod:`repro.net.transport`).  It is distinct from `repro.sync`, which
implements IVY's *client-visible* synchronisation (eventcounts, binary
locks) on top of the shared virtual memory itself, exactly as the paper
does.

The lock is generator-style: callers use ``yield from lock.acquire()``
and compose under any :class:`repro.sim.process.Driver`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.sim.process import Effect, Suspend, Task

__all__ = ["SimLock"]


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
