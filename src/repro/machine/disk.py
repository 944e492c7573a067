"""Per-node paging disk.

Models the workstation's local Winchester disk used by Aegis as demand-
paging backing store.  Operations are generators that charge seek +
transfer time and serialise on the single disk arm.  Every completed
transfer increments the node's ``disk_reads`` / ``disk_writes`` counters
— the quantity Table 1 of the paper reports.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.config import DiskConfig
from repro.metrics.collect import Counters
from repro.obs import NULL_OBS, Observability
from repro.sim.process import Compute, Effect, Sleep
from repro.sim.sync import SimLock

__all__ = ["Disk"]


class Disk:
    """A simple seek+stream disk holding evicted page images."""

    def __init__(
        self,
        config: DiskConfig,
        page_size: int,
        counters: Counters,
        node_id: int = -1,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.config = config
        self.page_size = page_size
        self.counters = counters
        self.node_id = node_id
        self.obs = obs
        self._store: dict[int, np.ndarray] = {}
        self._arm = SimLock()  # one transfer at a time

    def _busy(self, ns: int) -> Effect:
        """Disk time: stalls the node's CPU unless overlap_io is enabled
        (IVY had no I/O overlap; overlap is the paper's proposed fix)."""
        return Sleep(ns) if self.config.overlap_io else Compute(ns)

    def holds(self, page: int) -> bool:
        return page in self._store

    def write_page(self, page: int, data: np.ndarray) -> Generator[Effect, Any, None]:
        """Write a page image out (page-out)."""
        if len(data) != self.page_size:
            raise ValueError(f"bad page image size {len(data)}")
        yield from self._arm.acquire()
        # Span opens after the arm is won: disk time is the transfer
        # stall, not the queueing behind other transfers.
        span = (
            self.obs.span_begin("disk.write", node=self.node_id, page=page)
            if self.obs.enabled else None
        )
        try:
            yield self._busy(self.config.transfer_ns(self.page_size))
            self._store[page] = np.array(data, dtype=np.uint8, copy=True)
            self.counters.inc("disk_writes")
        finally:
            if span is not None:
                self.obs.span_end(span)
            self._arm.release()

    def read_page(self, page: int) -> Generator[Effect, Any, np.ndarray]:
        """Read a page image back (page-in); the image stays on disk."""
        yield from self._arm.acquire()
        span = (
            self.obs.span_begin("disk.read", node=self.node_id, page=page)
            if self.obs.enabled else None
        )
        try:
            if page not in self._store:
                raise KeyError(f"page {page} not on disk")
            yield self._busy(self.config.transfer_ns(self.page_size))
            self.counters.inc("disk_reads")
            return self._store[page]
        finally:
            if span is not None:
                self.obs.span_end(span)
            self._arm.release()

    def discard(self, page: int) -> None:
        """Drop a stale disk image (no media time charged)."""
        self._store.pop(page, None)
