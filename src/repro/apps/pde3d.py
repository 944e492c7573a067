"""3-D PDE solver: parallel Jacobi on a 7-point stencil.

The paper's memory-capacity workload (Figure 4 and Table 1).  The
coefficient matrix is sparse and never updated, so — "to be more
realistic" — it is *coded into the program* (the stencil below) rather
than stored; only the solution vectors ``u``/``u_new`` and the
right-hand side ``b`` live in the shared virtual memory.

Two properties drive the famous results:

- ``b`` is initialised **on one processor only** ("the program
  initializes its data structures only on one processor"), so on p >= 2
  that node starts out over-committed and sheds pages as the other
  workers pull their slabs — Table 1's decaying disk-transfer series;
- the total data set can exceed one node's physical memory while
  fitting in the cluster's combined memory — Figure 4's super-linear
  speedup.

Partitioning is by contiguous z-slabs with one ghost plane exchanged at
each end per iteration; iterations are separated by a single eventcount
barrier with the two solution buffers swapping roles (read from one,
write the other).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.api.ivy import IvyProcessContext
from repro.apps.common import (
    alloc_barrier,
    alloc_done_ec,
    partition,
    spawn_workers,
    wait_done,
)
from repro.metrics.collect import EpochLog

__all__ = ["Pde3dApp"]

#: Flops per grid point per iteration: 5 adds + 1 multiply (+ index math).
FLOPS_PER_POINT = 8


def stencil_sweep(u: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One Jacobi sweep of ``(b + sum of 6 neighbours) / 6`` with zero
    (Dirichlet) boundaries.  ``u``/``b`` are (z, y, x) grids.

    Accumulates and divides in place: one grid temporary, the same IEEE
    operations in the same order as an out-of-place ``acc / 6.0``."""
    acc = b.copy()
    acc[1:, :, :] += u[:-1, :, :]
    acc[:-1, :, :] += u[1:, :, :]
    acc[:, 1:, :] += u[:, :-1, :]
    acc[:, :-1, :] += u[:, 1:, :]
    acc[:, :, 1:] += u[:, :, :-1]
    acc[:, :, :-1] += u[:, :, 1:]
    acc /= 6.0
    return acc


class Pde3dApp:
    """One configured instance of the 3-D PDE solver."""

    name = "pde3d"

    def __init__(
        self,
        nprocs: int,
        m: int = 16,
        iters: int = 4,
        seed: int = 7,
        epoch_log: EpochLog | None = None,
    ) -> None:
        self.nprocs = nprocs
        self.m = m
        self.iters = iters
        rng = np.random.default_rng(seed)
        self.b = rng.uniform(-1.0, 1.0, size=(m, m, m))
        #: Optional Table 1 instrumentation: one epoch per iteration,
        #: closed at the exact barrier-release instant (see _on_release).
        self.epoch_log = epoch_log
        self._round = 0

    # ------------------------------------------------------------------

    def golden(self) -> np.ndarray:
        u = np.zeros_like(self.b)
        for _ in range(self.iters):
            u = stencil_sweep(u, self.b)
        return u

    # ------------------------------------------------------------------

    def main(self, ctx: IvyProcessContext) -> Generator[Any, Any, np.ndarray]:
        m = self.m
        plane = m * m  # one z-plane, in elements
        grid_bytes = 8 * m * plane
        b_addr = yield from ctx.malloc(grid_bytes)
        u_addrs = []
        for _ in range(2):  # double buffer; roles swap each iteration
            addr = yield from ctx.malloc(grid_bytes)
            u_addrs.append(addr)
        # The whole right-hand side is initialised here, on this one
        # processor — the paper's setup, and the source of Table 1.
        yield from ctx.write_array(b_addr, self.b.reshape(-1))
        yield from ctx.write_array(u_addrs[0], np.zeros(m * plane))
        barrier = yield from alloc_barrier(ctx, self.nprocs)
        done = yield from alloc_done_ec(ctx)
        slabs = partition(m, self.nprocs)
        yield from spawn_workers(
            ctx, self._worker, self.nprocs,
            b_addr, tuple(u_addrs), slabs, barrier,
            done_ec=done,
        )
        yield from wait_done(ctx, done, self.nprocs)
        final = u_addrs[self.iters % 2]
        u = yield from ctx.read_array(final, np.float64, m * plane)
        return u.reshape(m, m, m)

    def _worker(
        self,
        ctx: IvyProcessContext,
        k: int,
        b_addr: int,
        u_addrs: tuple[int, int],
        slabs: list[tuple[int, int]],
        barrier,
    ) -> Generator[Any, Any, None]:
        m = self.m
        plane = m * m
        lo, hi = slabs[k]
        depth = hi - lo
        if depth == 0:
            for _ in range(self.iters):
                yield from barrier.arrive(ctx, on_release=self._on_release)
            return
        for it in range(self.iters):
            src = u_addrs[it % 2]
            dst = u_addrs[(it + 1) % 2]
            # The program dereferences b afresh every sweep — it lives in
            # shared memory, not in a private copy (this is what keeps the
            # full data set in play for the capacity experiments).
            b_slab = yield from ctx.mem.fetch_array(
                b_addr + 8 * lo * plane, np.float64, depth * plane
            )
            # Fetch our slab plus ghost planes from the neighbours.
            glo = max(lo - 1, 0)
            ghi = min(hi + 1, m)
            u = yield from ctx.mem.fetch_array(
                src + 8 * glo * plane, np.float64, (ghi - glo) * plane
            )
            yield ctx.flops(depth * plane * FLOPS_PER_POINT)
            # Compute on the padded block, keep a copy of only our interior
            # rows (a view would pin the whole block), and drop everything
            # else before blocking: a suspended worker holds one slab.
            padded_b = np.zeros((ghi - glo, m, m))
            padded_b[lo - glo : lo - glo + depth] = b_slab.reshape(depth, m, m)
            swept = stencil_sweep(u.reshape(ghi - glo, m, m), padded_b)
            u_new = swept[lo - glo : lo - glo + depth].copy()
            del b_slab, u, padded_b, swept
            yield from ctx.mem.store_array(dst + 8 * lo * plane, u_new)
            del u_new
            yield from barrier.arrive(ctx, on_release=self._on_release)

    def _on_release(self) -> None:
        """Invoked by the round's releasing worker at barrier-open time."""
        self._round += 1
        if self.epoch_log is not None:
            self.epoch_log.mark(f"iteration {self._round}")

    # ------------------------------------------------------------------

    def check(self, result: np.ndarray) -> None:
        # Plane by plane: a whole-grid allclose holds several grid-sized
        # temporaries, more than the run itself at scale.  The shape check
        # comes first because zip would silently truncate a short result.
        expected = self.golden()
        if result.shape != expected.shape:
            raise AssertionError(
                f"pde3d result shape {result.shape} != expected {expected.shape}"
            )
        pairs = list(zip(result, expected))
        if not all(np.allclose(got, want, rtol=1e-10, atol=1e-12) for got, want in pairs):
            worst = max(np.max(np.abs(got - want)) for got, want in pairs)
            raise AssertionError(f"pde3d mismatch, max abs err {worst:g}")
