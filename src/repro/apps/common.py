"""Shared plumbing for the benchmark programs.

The paper's methodology, encoded once: every program "partitions its
problem by creating a certain number of processes according to the
number of processors used", spawns one worker per processor (manual
placement), synchronises with eventcounts/barriers, and reads its
results back out of the shared virtual memory before terminating.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Protocol

import numpy as np

from repro.api.ivy import IvyProcessContext
from repro.sync.barrier import BARRIER_RECORD_BYTES, Barrier
from repro.sync.eventcount import EC_RECORD_BYTES

__all__ = [
    "AppProtocol",
    "partition",
    "spawn_workers",
    "alloc_barrier",
    "alloc_done_ec",
    "wait_done",
]


class AppProtocol(Protocol):
    """What ``repro.exps.parallel.run_app`` requires of an app instance."""

    #: Harness identifier ("jacobi", "pde3d", ...).
    name: str
    #: Number of worker processes (== processors used, per the paper).
    nprocs: int

    def main(self, ctx: IvyProcessContext) -> Generator[Any, Any, Any]:
        """The complete program; returns the data ``check`` validates."""
        ...

    def check(self, result: Any) -> None:
        """Assert the parallel result matches the sequential golden."""
        ...


def partition(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous near-equal slices."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    bounds = np.linspace(0, n, parts + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


def alloc_done_ec(ctx: IvyProcessContext) -> Generator[Any, Any, int]:
    """Allocate + initialise a completion eventcount."""
    ec = yield from ctx.malloc(EC_RECORD_BYTES)
    yield from ctx.ec_init(ec)
    return ec


def alloc_barrier(
    ctx: IvyProcessContext, parties: int
) -> Generator[Any, Any, Barrier]:
    """Allocate + initialise an iteration barrier."""
    addr = yield from ctx.malloc(BARRIER_RECORD_BYTES)
    barrier = ctx.barrier(addr, parties)
    yield from barrier.init(ctx)
    return barrier


def spawn_workers(
    ctx: IvyProcessContext,
    fn: Callable[..., Generator],
    nprocs: int,
    *args: Any,
    done_ec: int,
) -> Generator[Any, Any, None]:
    """One worker per processor (the paper's parameterised partitioning);
    worker ``k`` runs on processor ``k`` and gets ``(k, *args)``.

    Each worker advances ``done_ec`` when it finishes.
    """

    def wrapped(wctx: IvyProcessContext, k: int) -> Generator:
        yield from fn(wctx, k, *args)
        yield from wctx.ec_advance(done_ec)

    # Spawn workers destined for *this* processor last: with IVY's
    # non-preemptive LIFO dispatcher, a locally spawned worker would
    # otherwise seize the CPU the first time the spawner blocks on a
    # remote spawn request and delay the creation of the rest.
    order = sorted(range(nprocs), key=lambda k: (k % ctx.nnodes == ctx.node_id, k))
    for k in order:
        yield from ctx.spawn(
            wrapped, k, on=k % ctx.nnodes, name=f"{fn.__name__}-{k}"
        )


def wait_done(
    ctx: IvyProcessContext, done_ec: int, nprocs: int
) -> Generator[Any, Any, None]:
    yield from ctx.ec_wait(done_ec, nprocs)
