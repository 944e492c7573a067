"""Figure 5 — speedup curves of the benchmark suite.

The sweep is |apps| x |procs| independent simulations, so it goes
through the parallel runner: job specs fan out across
``REPRO_WORKERS`` worker processes or run serially in-process (the
single-core fallback) — the merged curves are identical either way.
Every run's numerical output is checked against the sequential golden.
"""

from __future__ import annotations

from repro.exps.experiment import Column, Experiment, Record, fixed2, main
from repro.exps.parallel import Job, run_jobs
from repro.exps.presets import fig5_procs, fig5_specs


def run(full: bool) -> list[Record]:
    jobs = [
        Job(app, kwargs, nprocs=p, key=name)
        for name, (app, kwargs) in fig5_specs(full=full).items()
        for p in fig5_procs(full=full)
    ]
    times: dict[str, dict[int, int]] = {}
    for job, res in zip(jobs, run_jobs(jobs)):
        times.setdefault(job.key, {})[job.nprocs] = res.time_ns
    return [
        {"program": name, **{f"p={p}": t[1] / tp for p, tp in t.items()}}
        for name, t in times.items()
    ]


def shape(records: list[Record]) -> None:
    by_name = {r["program"]: r for r in records}
    # The well-behaved programs are "almost linear".
    for name in ("linear eqn (jacobi)", "TSP", "matrix multiply"):
        curve = by_name[name]
        assert curve["p=2"] > 1.5, f"{name} should scale at p=2: {curve}"
        assert curve["p=8"] > 3.5, f"{name} should keep scaling to p=8: {curve}"
        assert curve["p=8"] > curve["p=2"], name

    pde = by_name["3-D PDE"]
    assert pde["p=4"] > 1.8 and pde["p=8"] > 2.0, f"PDE should scale: {pde}"

    # Dot-product is the deliberate weak case: little computation, lots
    # of data movement.
    dot = by_name["dot-product"]
    assert dot["p=8"] < 1.5, f"dot-product must stay communication-bound: {dot}"

    sort_curve = by_name["merge-split sort"]
    assert 1.0 < sort_curve["p=4"] < 4.0, f"sort is sub-linear but positive: {sort_curve}"
    # Ranking: the strong apps beat sort, sort beats dot-product.
    assert by_name["matrix multiply"]["p=8"] > sort_curve["p=8"] > dot["p=8"]


EXPERIMENT = Experiment(
    name="fig5",
    title="Figure 5 — speedups of the benchmark suite\n"
    "(every run's numerical output is checked against the sequential golden)",
    caption="Speedup = T(1) / T(p), simulated time",
    columns=[Column("program", "program")]
    + [Column(f"p={p}", f"p={p}", fixed2) for p in fig5_procs(full=True)],
    run=run,
    shape=shape,
    paper=(
        '"Parallel programs using a shared virtual memory yield almost linear '
        'and occasionally super-linear speedups"; the well-behaved programs '
        "(linear solver, PDE, TSP, matrix multiply) scale near-linearly while "
        "dot-product, included \"to show the weak side of the shared virtual "
        'memory system", does not.'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
