"""Table 1 — disk page transfers of the first six 3-D PDE iterations.

We reproduce the *shape*: one processor sweeps a working set larger
than its memory every iteration and pays disk transfers forever; with
two processors the pages spread across the combined memories during the
first iterations and the disk traffic dies out.
"""

from __future__ import annotations

from repro.api.ivy import Ivy
from repro.exps.experiment import Column, Experiment, Record, main
from repro.exps.parallel import app_constructor
from repro.exps.presets import pde_capacity
from repro.metrics.collect import EpochLog

ITERS = 6


def run(full: bool) -> list[Record]:
    """Per-iteration total disk transfers on one and on two processors."""
    name, app_args, config = pde_capacity(full=full)
    ctor = app_constructor(name)
    records: list[Record] = []
    for p in (1, 2):
        ivy = Ivy(config.replace(nodes=p))
        log = EpochLog([node.counters for node in ivy.cluster.nodes])
        app = ctor(p, **app_args)
        app.epoch_log = log
        result = ivy.run(app.main)
        app.check(result)
        reads = log.series("disk_reads")
        writes = log.series("disk_writes")
        series = [r + w for (_, r), (_, w) in zip(reads, writes)][: app.iters]
        records.append({
            "configuration": f"{p} processor{'s' if p > 1 else ''}",
            **{f"iter {i + 1}": n for i, n in enumerate(series)},
        })
    return records


def shape(records: list[Record]) -> None:
    one, two = ([r[f"iter {i + 1}"] for i in range(ITERS)] for r in records)
    # 1 processor: steady thrash — late iterations stay high.
    tail_1p = one[3:]
    assert min(tail_1p) > 50, f"1-proc series must stay high: {one}"
    # 2 processors: decays — the tail is a small fraction of iteration 1
    # and far below the 1-processor tail.
    tail_2p = two[3:]
    assert max(tail_2p) < two[0] / 2, f"2-proc series must decay: {two}"
    assert max(tail_2p) < min(tail_1p) / 4, f"2-proc tail must be far below 1-proc: {two} vs {one}"
    # First iterations on 2 procs show real traffic (the spread-out phase).
    assert two[0] > 20, f"2-proc iteration 1 moves the data set: {two}"


EXPERIMENT = Experiment(
    name="table1",
    title="Table 1 — disk page transfers of each 3-D PDE iteration",
    columns=[Column("configuration", "configuration")]
    + [Column(f"iter {i + 1}", f"iter {i + 1}") for i in range(ITERS)],
    run=run,
    shape=shape,
    paper="""disk page transfers, 50^3 problem on Apollos:

    1 processor :  699  2264  1702  1502  1586  1604   (steady thrash)
    2 processors: 1452   928   781    91    54    14   (decays to ~0)""",
)

if __name__ == "__main__":
    main(EXPERIMENT)
