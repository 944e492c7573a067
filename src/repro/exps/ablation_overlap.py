"""Ablation — disk I/O overlap (the paper's proposed improvement).

In IVY a paging transfer stalls the whole node (the user-mode system
lives in one Aegis process).  With overlap enabled, a process blocked
on the disk hands the CPU to the next ready process.  The workload that
shows it: one disk-bound process (sweeping a region that does not fit in
memory) sharing a node with one compute-bound process.  Stalled I/O
serialises them; overlapped I/O runs them concurrently.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.config import ClusterConfig
from repro.exps.experiment import Column, Experiment, Record, main, run_program, seconds
from repro.sync.eventcount import EC_RECORD_BYTES


def _mixed_run(overlap: bool, sweeps: int, compute_ns: int) -> Record:
    """One node, two lightweight processes: a pager (sweeps a region that
    does not fit in memory) and a computer.  Without I/O overlap the
    computer is stuck behind every disk transfer; with it, the two jobs
    run concurrently and the makespan approaches max() instead of sum()."""
    config = (
        ClusterConfig(nodes=1)
        .with_memory(frames=8, replacement="random")
        .with_disk(overlap_io=overlap)
    )
    page = config.svm.page_size

    def pager_proc(ctx: Any, region: Any, done: Any) -> Generator[Any, Any, Any]:
        for sweep in range(sweeps):
            for p in range(24):  # 24 pages through 8 frames: pure paging
                yield from ctx.write_i64(region + p * page, sweep)
        yield from ctx.ec_advance(done)

    def compute_proc(ctx: Any, done: Any) -> Generator[Any, Any, Any]:
        # Fine slices: with no preemption, slice length bounds how well
        # compute can pack into the pager's disk waits.
        for _ in range(300):
            yield ctx.compute(compute_ns // 300)
            yield ctx.yield_cpu()
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        region = yield from ctx.malloc(24 * page)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        yield from ctx.spawn(pager_proc, region, done)
        yield from ctx.spawn(compute_proc, done)
        yield from ctx.ec_wait(done, 2)
        return True

    r = run_program(config, main_prog, "disk_reads", "disk_writes")
    return r | {"overlap": overlap, "disk_ops": r["disk_reads"] + r["disk_writes"]}


def run(full: bool) -> list[Record]:
    sweeps = 8 if full else 3
    compute_ns = 8_000_000_000 if full else 3_000_000_000
    return [_mixed_run(overlap, sweeps, compute_ns) for overlap in (False, True)]


def shape(records: list[Record]) -> None:
    stall, overlap = records
    assert not stall["overlap"] and overlap["overlap"]
    # Both runs do the same paging work.
    assert abs(stall["disk_ops"] - overlap["disk_ops"]) <= 10
    # Overlap packs compute into disk waits: >= 1.4x faster here.
    assert overlap["time_ns"] < stall["time_ns"] / 1.4, records


EXPERIMENT = Experiment(
    name="ablation_overlap",
    title="Ablation — disk I/O overlap (pager + computer sharing one node)",
    columns=(
        Column("disk I/O", "overlap", lambda on: "overlapped" if on else "IVY (stall)"),
        Column("exec time", "time_ns", seconds),
        Column("disk ops", "disk_ops"),
    ),
    run=run,
    shape=shape,
    paper=(
        '"I/O overlaps among the lightweight processes do not exist in IVY. ... '
        'The disk I/O overlap may also greatly improve IVY\'s performance."'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
