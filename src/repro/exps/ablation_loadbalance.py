"""Ablation — passive load balancing policies.

Workload: a burst of unequal compute-bound processes all born on node 0
with *system* scheduling — exactly the case the balancer exists for.
Three policies: balancing off, ready-count-only, and the paper's
thresholded total-count policy.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.config import ClusterConfig, MILLISECOND
from repro.exps.experiment import Column, Experiment, Record, main, run_program, seconds
from repro.sim.process import Sleep
from repro.sync.eventcount import EC_RECORD_BYTES

POLICIES = ("off", "ready-count", "thresholds")
NODES = 4


def _burst(policy: str, nodes: int, nprocs: int, full: bool) -> Record:
    slice_ns = 60_000_000 if full else 20_000_000

    def worker(ctx: Any, slices: Any, done: Any) -> Generator[Any, Any, Any]:
        # Compute in slices, with a blocking (suspended) phase every few
        # slices — the paper's point is precisely that suspended
        # processes make the ready count a misleading load signal.
        for i in range(slices):
            yield ctx.compute(slice_ns)
            if i % 3 == 2:
                yield Sleep(slice_ns)  # blocked: not ready, still load
            else:
                yield ctx.yield_cpu()
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        for i in range(nprocs):
            # Uneven work: between 8 and 22 slices.
            yield from ctx.spawn(worker, 8 + (i * 7) % 15, done)
        yield from ctx.ec_wait(done, nprocs)
        return True

    config = ClusterConfig(nodes=nodes).with_sched(
        load_balancing=policy != "off",
        ready_count_only=policy == "ready-count",
        lower_threshold=1,
        upper_threshold=2,
        null_timeout=50 * MILLISECOND,
    )
    counters = ("processes_migrated_out", "work_requests_rejected")
    return {"policy": policy} | run_program(config, main_prog, *counters)


def run(full: bool) -> list[Record]:
    nprocs = 24 if full else 12
    return [_burst(policy, NODES, nprocs, full) for policy in POLICIES]


def shape(records: list[Record]) -> None:
    off, ready, thresholds = records
    # Balancing wins big over a node-0 pile-up.
    assert thresholds["time_ns"] < off["time_ns"] / 1.8
    assert ready["time_ns"] < off["time_ns"] / 1.8
    assert thresholds["processes_migrated_out"] > 0
    # The paper's criterion: the thresholded policy minimises rejections.
    assert thresholds["work_requests_rejected"] < ready["work_requests_rejected"]


EXPERIMENT = Experiment(
    name="ablation_loadbalance",
    title="Ablation — passive load balancing (uneven burst born on node 0)",
    columns=(
        Column("policy", "policy"),
        Column("completion time", "time_ns", seconds),
        Column("migrations", "processes_migrated_out"),
        Column("rejections", "work_requests_rejected"),
    ),
    run=run,
    shape=shape,
    paper=(
        '"Experiments with many parallel application programs show that the '
        "algorithm will not work well if the number of ready processes on each "
        "processor is used as the only criterion for migrating processes.  A "
        "better way is to use the number of processes (including both ready and "
        'suspended) controlled by thresholds."'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
