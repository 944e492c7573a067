"""Figure 4 — super-linear speedup of the 3-D PDE solver.

``python -m repro.obs report --app pde3d --capacity --nodes 1`` (or 2)
shows where each run's simulated time goes.
"""

from __future__ import annotations

from repro.exps.experiment import Column, Experiment, Record, fixed2, main
from repro.exps.parallel import Job, run_jobs
from repro.exps.presets import pde_capacity


def run(full: bool) -> list[Record]:
    app, app_args, config = pde_capacity(full=full)
    runs = run_jobs([Job(app, app_args, nprocs=p, config=config) for p in (1, 2, 4, 8)])
    return [
        {
            "p": r.nprocs,
            "speedup": runs[0].time_ns / r.time_ns,
            "super_linear": runs[0].time_ns / r.time_ns > r.nprocs,
            "disk": r.counters["disk_reads"] + r.counters["disk_writes"],
        }
        for r in runs
    ]


def shape(records: list[Record]) -> None:
    curve = {r["p"]: r["speedup"] for r in records}
    # Super-linear at every multi-processor point (the paper's headline).
    assert curve[2] > 2.0, f"expected super-linear at p=2: {curve}"
    assert curve[4] > 4.0, f"expected super-linear at p=4: {curve}"
    assert curve[8] > 8.0, f"expected super-linear at p=8: {curve}"
    # The effect is memory-capacity driven: only p=1 thrashes the disk.
    disk = {r["p"]: r["disk"] for r in records}
    assert disk[1] > 4 * disk[2], f"1-proc run must dominate disk traffic: {disk}"


EXPERIMENT = Experiment(
    name="fig4",
    title="Figure 4 — 3-D PDE speedup when the data set exceeds one node's memory",
    columns=(
        Column("processors", "p"),
        Column("speedup", "speedup", fixed2),
        Column("super-linear?", "super_linear", lambda yes: "yes" if yes else "no"),
        Column("disk transfers", "disk"),
    ),
    run=run,
    shape=shape,
    paper=(
        '"The data structure for the problem is greater than the size of '
        "physical memory on a single processor, so when the program is run "
        "on one processor there is a large amount of paging between the "
        "physical memory and disk. ... the shared virtual memory can "
        "effectively exploit not only the available processors but also the "
        'combined physical memories."'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
