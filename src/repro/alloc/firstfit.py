"""First-fit allocation with one-level centralized control.

The free list lives in the contact node's private memory; remote
processors allocate and free through remote operations.  Every piece is
rounded up to page boundaries to reduce contention (false sharing) —
exactly the paper's design.  ``allocate``/``free`` are atomic: the
manager serialises them with a lock, mirroring the binary-lock guard of
the paper's primitives.
"""

from __future__ import annotations

import bisect
from typing import Any, Generator

from repro.api.cluster import NodeContext
from repro.net.packet import request_size
from repro.sim.process import Compute, Effect
from repro.sim.sync import SimLock

__all__ = ["FreeList", "CentralAllocator", "OutOfSharedMemory"]

OP_ALLOC = "mem.alloc"
OP_FREE = "mem.free"


class OutOfSharedMemory(MemoryError):
    """No free-list hole can satisfy the request."""


class FreeList:
    """A first-fit free list of (addr, size) holes with coalescing.

    Pure data structure (no simulation costs) so it can be reused by the
    local level of the two-level allocator and tested exhaustively.
    """

    def __init__(self, base: int = 0, size: int = 0) -> None:
        self._starts: list[int] = []
        self._holes: dict[int, int] = {}
        self.capacity = size
        self.allocated: dict[int, int] = {}
        if size > 0:
            self._insert(base, size)

    def free_bytes(self) -> int:
        return sum(self._holes.values())

    def alloc(self, size: int) -> int:
        """First fit: the lowest-addressed hole large enough."""
        for start in self._starts:
            hole = self._holes[start]
            if hole >= size:
                self._remove(start)
                if hole > size:
                    self._insert(start + size, hole - size)
                self.allocated[start] = size
                return start
        raise OutOfSharedMemory(
            f"no hole of {size} bytes (largest free: "
            f"{max(self._holes.values(), default=0)})"
        )

    def free(self, addr: int) -> int:
        """Return a block; coalesces with adjacent holes.  Returns size."""
        size = self.allocated.pop(addr, None)
        if size is None:
            raise ValueError(f"free of unallocated address {addr:#x}")
        # Coalesce with the hole ending at addr and the one starting after.
        idx = bisect.bisect_left(self._starts, addr)
        if idx > 0:
            prev = self._starts[idx - 1]
            if prev + self._holes[prev] == addr:
                addr, size = prev, self._holes[prev] + size
                self._remove(prev)
        nxt = addr + size
        if nxt in self._holes:
            size += self._holes[nxt]
            self._remove(nxt)
        self._insert(addr, size)
        return size

    def donate(self, addr: int, size: int) -> None:
        """Seed the list with an externally-acquired region (two-level)."""
        self.allocated[addr] = size
        self.free(addr)

    def _insert(self, start: int, size: int) -> None:
        bisect.insort(self._starts, start)
        self._holes[start] = size

    def _remove(self, start: int) -> None:
        self._starts.remove(start)
        del self._holes[start]


class CentralAllocator:
    """Per-node allocation endpoint backed by the contact node's free list.

    Instantiate one per node with a shared :class:`FreeList` held by the
    manager instance; non-manager instances go through remote operations.
    """

    def __init__(
        self,
        node: NodeContext,
        manager_node: int,
        heap_base: int,
        heap_size: int,
    ) -> None:
        self.node = node
        self.manager_node = manager_node
        self.page_size = node.config.svm.page_size
        self.is_manager = node.node_id == manager_node
        #: The free list exists only on the manager (private memory).
        self.freelist: FreeList | None = (
            FreeList(heap_base, heap_size) if self.is_manager else None
        )
        self._lock = SimLock()  # the paper's binary lock on the primitive
        node.remote.register(OP_ALLOC, self._serve_alloc)
        node.remote.register(OP_FREE, self._serve_free)

    # ------------------------------------------------------------------
    # client API (generators, run in process context)

    def allocate(self, nbytes: int) -> Generator[Effect, Any, int]:
        """Allocate ``nbytes`` (rounded up to whole pages); returns addr."""
        if nbytes <= 0:
            raise ValueError(f"allocation of {nbytes} bytes")
        size = self._round(nbytes)
        if self.is_manager:
            addr = yield from self._local_alloc(size)
        else:
            addr = yield from self.node.remote.request(
                self.manager_node, OP_ALLOC, size, nbytes=request_size(8)
            )
        if addr == 0:
            raise OutOfSharedMemory(f"central allocator rejected {size} bytes")
        self.node.counters.inc("allocations")
        return addr

    def release(self, addr: int) -> Generator[Effect, Any, None]:
        """Free a previous allocation."""
        if self.is_manager:
            yield from self._local_free(addr)
        else:
            ok = yield from self.node.remote.request(
                self.manager_node, OP_FREE, addr, nbytes=request_size(8)
            )
            if not ok:
                raise ValueError(f"remote free of unallocated address {addr:#x}")
        self.node.counters.inc("frees")

    def _round(self, nbytes: int) -> int:
        return -(-nbytes // self.page_size) * self.page_size

    # ------------------------------------------------------------------
    # manager side

    def _local_alloc(self, size: int) -> Generator[Effect, Any, int]:
        yield from self._lock.acquire()
        try:
            yield Compute(self.node.config.cpu.ns_per_op * 50)
            try:
                return self.freelist.alloc(size)
            except OutOfSharedMemory:
                return 0
        finally:
            self._lock.release()

    def _local_free(self, addr: int) -> Generator[Effect, Any, bool]:
        yield from self._lock.acquire()
        try:
            yield Compute(self.node.config.cpu.ns_per_op * 50)
            try:
                self.freelist.free(addr)
                return True
            except ValueError:
                return False
        finally:
            self._lock.release()

    def _serve_alloc(self, origin: int, size: int) -> Generator[Effect, Any, int]:
        if not self.is_manager:
            raise RuntimeError("allocation request reached a non-manager node")
        addr = yield from self._local_alloc(size)
        return addr

    def _serve_free(self, origin: int, addr: int) -> Generator[Effect, Any, bool]:
        if not self.is_manager:
            raise RuntimeError("free request reached a non-manager node")
        ok = yield from self._local_free(addr)
        return ok
