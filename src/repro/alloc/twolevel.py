"""Two-level memory management — the improvement the paper proposes.

"Each processor has a local allocator maintaining a big chunk of memory
allocated from the central memory allocator. ... When there is not
enough free memory left in the big chunk, the local allocator will
allocate another big chunk from the central allocator.  This approach
has not been implemented yet, though it is expected to have better
performance."

We implement it: most allocations are satisfied from the node-local
free list with no network traffic; only chunk refills go to the central
manager.  Frees return memory to the local list (chunks are never
returned to the centre — the simple policy).  A free of an address
allocated on *another* node is routed to its allocating node, which the
caller's bookkeeping makes unnecessary in practice; the benchmark apps
free where they allocate, as IVY programs did.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.alloc.firstfit import CentralAllocator, FreeList, OutOfSharedMemory
from repro.api.cluster import NodeContext
from repro.sim.process import Compute, Effect
from repro.sim.sync import SimLock

__all__ = ["TwoLevelAllocator"]


class TwoLevelAllocator:
    """Node-local allocator over a central chunk source."""

    def __init__(self, node: NodeContext, central: CentralAllocator) -> None:
        self.node = node
        self.central = central
        self.page_size = node.config.svm.page_size
        self.chunk_bytes = (
            node.config.sched.alloc_chunk_pages * self.page_size
        )
        self._local = FreeList()  # starts empty; seeded by chunk refills
        self._lock = SimLock()

    # ------------------------------------------------------------------

    def allocate(self, nbytes: int) -> Generator[Effect, Any, int]:
        if nbytes <= 0:
            raise ValueError(f"allocation of {nbytes} bytes")
        size = -(-nbytes // self.page_size) * self.page_size
        yield from self._lock.acquire()
        try:
            yield Compute(self.node.config.cpu.ns_per_op * 50)
            try:
                addr = self._local.alloc(size)
                self.node.counters.inc("local_allocations")
                return addr
            except OutOfSharedMemory:
                pass
            # Refill: fetch a chunk big enough for this request.
            chunk = max(size, self.chunk_bytes)
            addr = yield from self.central.allocate(chunk)
            self.node.counters.inc("chunk_refills")
            self._local.donate(addr, chunk)
            return self._local.alloc(size)
        finally:
            self._lock.release()

    def release(self, addr: int) -> Generator[Effect, Any, None]:
        yield from self._lock.acquire()
        try:
            yield Compute(self.node.config.cpu.ns_per_op * 50)
            self._local.free(addr)
            self.node.counters.inc("local_frees")
        finally:
            self._lock.release()
