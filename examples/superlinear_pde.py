"""Scenario: the famous super-linear speedup (Figure 4 / Table 1 story).

A 3-D PDE whose data set is bigger than one workstation's physical
memory.  Alone, the machine thrashes its paging disk every iteration;
with even one more workstation, the shared virtual memory spreads the
pages over the combined memories and the disk traffic dies out — so two
machines are *more than twice* as fast.

Run:  python examples/superlinear_pde.py
"""

from repro.api.ivy import Ivy
from repro.exps.parallel import app_constructor
from repro.exps.presets import pde_capacity
from repro.metrics.collect import EpochLog
from repro.metrics.report import ascii_table


def main() -> None:
    name, app_args, config = pde_capacity(full=False)
    ctor = app_constructor(name)
    m = app_args["m"]
    frames = config.memory.frames
    dataset_pages = 3 * ((m**3 * 8 + 1023) // 1024)
    print(
        f"3-D PDE, {m}^3 grid: data set ~{dataset_pages} pages, "
        f"per-node memory {frames} frames\n"
    )

    rows = []
    base_time = None
    for p in (1, 2, 4):
        ivy = Ivy(config.replace(nodes=p))
        log = EpochLog([node.counters for node in ivy.cluster.nodes])
        app = ctor(p, **app_args)
        app.epoch_log = log
        result = ivy.run(app.main)
        app.check(result)
        if base_time is None:
            base_time = ivy.time_ns
        transfers = [
            r + w
            for (_, r), (_, w) in zip(
                log.series("disk_reads"), log.series("disk_writes")
            )
        ][: app.iters]
        rows.append(
            [
                p,
                f"{ivy.time_ns / 1e9:.2f}s",
                f"{base_time / ivy.time_ns:.2f}",
                " ".join(str(t) for t in transfers),
            ]
        )
    print(
        ascii_table(
            ["procs", "sim time", "speedup", "disk transfers per iteration"], rows
        )
    )
    print(
        "\nSpeedup above p is the paper's point: the combined physical memories"
        "\neliminate the paging a single node cannot avoid."
    )


if __name__ == "__main__":
    main()
