"""Figure 6 — speedup of the merge-split sort.

The figure carries two series: the measured speedup on the SVM and the
*algorithmic ideal* with communication free.

Ideal model (comparisons only, which dominate): on one processor the
program performs one internal sort of the whole vector, ``n log2 n``
comparisons.  On N processors each of the N processes quick-sorts its
two blocks, ``(n/N) log2 (n/N)``, and then performs ``2N-1`` merge
phases of ``2 n/(2N) = n/N`` comparisons each (at most one active pair
per process per phase).
"""

from __future__ import annotations

import math

from repro.exps.experiment import Column, Experiment, Record, fixed2, main
from repro.exps.parallel import Job, run_jobs
from repro.exps.presets import sort_spec


def ideal_speedup(n: int, nprocs: int) -> float:
    """Algorithmic speedup of merge-split sort with free communication."""
    if nprocs == 1:
        return 1.0
    t1 = n * math.log2(n)
    per = n / nprocs
    tn = per * math.log2(max(per, 2.0)) + (2 * nprocs - 1) * per
    return t1 / tn


def run(full: bool) -> list[Record]:
    app, app_args = sort_spec(full=full)
    runs = run_jobs([Job(app, app_args, nprocs=p) for p in (1, 2, 4, 8)])
    return [
        {
            "p": r.nprocs,
            "measured": runs[0].time_ns / r.time_ns,
            "ideal": ideal_speedup(app_args["nrecords"], r.nprocs),
        }
        for r in runs
    ]


def shape(records: list[Record]) -> None:
    curve = {r["p"]: r["measured"] for r in records}
    for r in records[1:]:
        p, ideal = r["p"], r["ideal"]
        assert ideal < p, "the algorithm itself is sub-linear"
        assert curve[p] < ideal + 0.05, (
            f"measured cannot beat the no-communication ideal at p={p}"
        )
    # Positive but clearly sub-linear ("does not look very good").
    assert curve[2] > 1.1
    assert curve[4] > 1.3
    assert curve[8] < 4.0


EXPERIMENT = Experiment(
    name="fig6",
    title="Figure 6 — merge-split sort speedup (measured vs. no-communication ideal)",
    columns=(
        Column("processors", "p"),
        Column("measured", "measured", fixed2),
        Column("ideal (no comm)", "ideal", fixed2),
    ),
    run=run,
    shape=shape,
    paper=(
        '"The curve does not look very good because even with no '
        'communication costs, the algorithm does not yield linear speedup."'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
