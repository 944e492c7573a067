"""Aegis-style demand pager: bounded frames, approximate LRU, disk backing.

The pager sits between the SVM layer and the raw frame pool.  When a
frame is needed and the pool is full, it picks the LRU unpinned victim
and asks the injected *eviction policy* (owned by the SVM layer, which
knows ownership) what to do:

- a read-only copy is silently dropped — the true owner still has the
  data, and a later invalidation to a non-holder is harmless;
- an owned page is written to the local paging disk first, exactly the
  traffic Table 1 counts.

This reproduces the paper's account of the super-linear speedup: on one
processor the data set does not fit and every iteration thrashes the
disk; on two processors the SVM spreads pages across memories and the
disk traffic decays.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

import numpy as np

from repro.machine.disk import Disk
from repro.machine.memory import FramePressure, PhysicalMemory
from repro.metrics.collect import Counters
from repro.obs import NULL_OBS, Observability
from repro.sim.process import Effect, Sleep

__all__ = ["Pager"]

#: Eviction policy: generator ``(page) -> bool`` doing protocol work
#: (e.g. writing an owned page to disk) before the frame is dropped.
#: Returns False to *veto* the victim (its page-table entry is locked by
#: an in-flight coherence operation); the pager then tries the next-LRU
#: candidate.  The veto is how lock-ordering deadlocks between faults and
#: evictions are avoided: eviction never waits for a page lock.
EvictionPolicy = Callable[[int], Generator[Effect, Any, bool]]

#: Backoffs ``ensure_frame`` sits through with every resident page
#: pinned or lock-vetoed before it calls the pool exhausted (10 s of
#: simulated time at 100 us each).
STALL_LIMIT = 100_000


class Pager:
    """Frame acquisition with LRU eviction to the local disk."""

    def __init__(
        self,
        memory: PhysicalMemory,
        disk: Disk,
        counters: Counters,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.memory = memory
        self.disk = disk
        self.counters = counters
        self.obs = obs
        self._evict: EvictionPolicy | None = None

    def set_eviction_policy(self, policy: EvictionPolicy) -> None:
        self._evict = policy

    def close(self) -> None:
        """Forget the eviction policy (the protocol, which refers back here)."""
        self._evict = None

    # ------------------------------------------------------------------

    def ensure_frame(self, page: int) -> Generator[Effect, Any, None]:
        """Make room so ``install`` of ``page`` cannot fail.

        May run the eviction policy (disk writes, protocol updates) and
        therefore may consume simulated time.
        """
        vetoed: set[int] = set()
        stalls = 0
        while self.memory.full and page not in self.memory:
            try:
                victim = self.memory.lru_victim(vetoed)
            except FramePressure as pressure:
                # Every candidate is pinned or lock-vetoed.  Vetoes are
                # transient: an operation that holds a resident page's
                # lock completes without acquiring further frames (a
                # lock-holder that *does* need a frame holds it for a
                # non-resident page, which is not a veto candidate).  So
                # wait for a lock to clear and rescan.  The stall bound
                # turns a genuine deadlock into a loud failure.
                stalls += 1
                if stalls > STALL_LIMIT:
                    memory = self.memory
                    resident = memory.resident_pages()
                    raise FramePressure(
                        f"node {self.disk.node_id}: no frame for page {page} "
                        f"after {STALL_LIMIT} stalls: {len(resident)} resident, "
                        f"{sum(map(memory.pinned, resident))} pinned, "
                        f"{len(vetoed)} lock-vetoed"
                    ) from pressure
                vetoed.clear()
                yield Sleep(100_000)  # 100 us backoff
                continue
            if self._evict is None:
                raise RuntimeError("pager has no eviction policy")
            freed = yield from self._evict(victim)
            if not freed:
                vetoed.add(victim)
                continue
            self.counters.inc("evictions")
            if self.obs.enabled:
                # Frame-pool occupancy sampled at eviction time: under
                # capacity pressure this histogram hugs the frame budget.
                self.obs.observe("frames.occupancy", len(self.memory))
            if victim in self.memory:
                raise RuntimeError(
                    f"eviction policy failed to release frame of page {victim}"
                )
        return

    def try_install(self, page: int, data: np.ndarray | None = None) -> np.ndarray | None:
        """Plain-function :meth:`install` for the no-eviction case.

        ``data`` is handed over as for :meth:`PhysicalMemory.install`,
        but only once this returns a frame: on ``None`` the caller still
        holds it and passes it on to :meth:`install`.

        Returns the frame when room exists (or the page is already
        resident), ``None`` when eviction work is required — the caller
        then falls back to the generator.  Splitting the fast path out
        skips the generator machinery on every pressure-free install.
        """
        memory = self.memory
        if memory.full and page not in memory:
            return None
        frame = memory.install(page, data)
        self.obs.gauge("frames.resident", len(memory))
        return frame

    def install(
        self, page: int, data: np.ndarray | None = None
    ) -> Generator[Effect, Any, np.ndarray]:
        """Evict as needed, then place ``page`` (optionally with bytes)."""
        memory = self.memory
        if memory.full and page not in memory:
            yield from self.ensure_frame(page)
        frame = memory.install(page, data)
        self.obs.gauge("frames.resident", len(memory))
        return frame

    def page_out(self, page: int) -> Generator[Effect, Any, None]:
        """Write ``page``'s frame to disk and drop the frame."""
        data = self.memory.data(page)
        yield from self.disk.write_page(page, data)
        self.memory.drop(page)

    def page_in(self, page: int) -> Generator[Effect, Any, np.ndarray]:
        """Read ``page`` from disk into a frame (evicting as needed)."""
        data = yield from self.disk.read_page(page)
        frame = yield from self.install(page, self.memory.pages.copy_of(data))
        self.disk.discard(page)
        return frame
