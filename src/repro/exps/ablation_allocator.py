"""Ablation — centralized first-fit vs. two-level memory allocation.

The paper proposed two-level allocation but never implemented it.  We
implemented it; this experiment quantifies the paper's expectation on
an allocation-heavy microbenchmark (every node allocates/frees many
small objects concurrently).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.config import ClusterConfig
from repro.exps.experiment import Column, Experiment, Record, main, run_program, seconds
from repro.sync.eventcount import EC_RECORD_BYTES

NODES = 4


def _alloc_storm(allocator: str, nodes: int, per_node: int) -> Record:
    def worker(ctx: Any, done: Any) -> Generator[Any, Any, Any]:
        held = []
        for i in range(per_node):
            addr = yield from ctx.malloc(512)
            held.append(addr)
            if len(held) >= 4:  # free in bursts, LIFO
                yield from ctx.free(held.pop())
                yield from ctx.free(held.pop())
        for addr in held:
            yield from ctx.free(addr)
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        for k in range(nodes):
            yield from ctx.spawn(worker, done, on=k)
        yield from ctx.ec_wait(done, nodes)
        return True

    config = ClusterConfig(nodes=nodes).with_sched(allocator=allocator)
    counters = ("chunk_refills", "local_allocations")
    return {"allocator": allocator} | run_program(config, main_prog, *counters)


def run(full: bool) -> list[Record]:
    per_node = 200 if full else 40
    return [_alloc_storm(allocator, NODES, per_node) for allocator in ("central", "twolevel")]


def shape(records: list[Record]) -> None:
    central, twolevel = records
    assert central["allocator"] == "central"
    # "Expected to have better performance" — confirmed, by a lot.
    assert twolevel["time_ns"] < central["time_ns"] / 2
    assert twolevel["msgs"] < central["msgs"] / 2
    # Nearly everything is served locally after a handful of refills.
    assert twolevel["local_allocations"] > 10 * twolevel["chunk_refills"]


EXPERIMENT = Experiment(
    name="ablation_allocator",
    title=f"Ablation — memory allocators (concurrent alloc/free storm, {NODES} nodes)",
    columns=(
        Column("allocator", "allocator"),
        Column("exec time", "time_ns", seconds),
        Column("ring msgs", "msgs"),
        Column("chunk refills", "chunk_refills"),
        Column("local allocs", "local_allocations"),
    ),
    run=run,
    shape=shape,
    paper=(
        '"A more efficient approach is two-level memory management. ... This '
        "approach has not been implemented yet, though it is expected to have "
        'better performance."'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
