"""Run the complete experiment battery and write a consolidated report.

::

    python -m repro.exps.all [--full] [--out results/report.txt]
    python -m repro.exps.all --check results/full_experiments.txt

Runs every figure, table and ablation in sequence, prints each one's
paper-style table, and (optionally) writes everything into a report
file — the file committed as ``results/full_experiments.txt`` was
produced this way with ``--full``.  Each experiment's wall time goes to
stderr, so the report is a pure function of the simulation.  Every
experiment's shape is asserted on the records it just produced;
``--check`` (which implies ``--full``) also compares the report with a
committed one cell by cell.  Any failure names its experiment and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.config import ConfigError
from repro.exps.experiment import Experiment, compare, shape_failure

#: The paper's experiments in report order; each module declares one.
EXPERIMENTS: list[Experiment] = [
    importlib.import_module(f"repro.exps.{name}").EXPERIMENT
    for name in (
        "fig4", "fig5", "fig6", "table1",
        "ablation_managers", "ablation_pagesize", "ablation_allocator",
        "ablation_loadbalance", "ablation_msgpass", "ablation_overlap",
        "ablation_writepolicy",
    )
]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale workloads")
    parser.add_argument("--out", default=None, help="also write the report here")
    parser.add_argument(
        "--check", metavar="REPORT",
        help="run the --full battery and compare its report against a "
        "committed one; exit 1 naming every cell that differs",
    )
    args = parser.parse_args(argv)

    chunks: list[str] = []
    problems: list[str] = []
    for exp in EXPERIMENTS:
        started = time.time()
        try:
            records = exp.run(args.full or args.check is not None)
        except ConfigError as exc:  # REPRO_WORKERS out of range
            parser.error(str(exc))
        chunk = f"=== {exp.name} ===\n{exp.render(records)}\n"
        chunks.append(chunk)
        print(chunk)
        # Host time is not part of the report: stdout stays comparable.
        print(f"[{exp.name}: {time.time() - started:.1f}s wall]\n", file=sys.stderr)
        failure = shape_failure(exp, records)
        if failure:
            problems.append(failure)
    report = "\n".join(chunks)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
        print(f"report written to {args.out}")
    if args.check:
        with open(args.check) as fh:
            problems += compare(EXPERIMENTS, fh.read(), report)
    for problem in problems:
        print(problem)
    if problems:
        return 1
    if args.check:
        print(f"report matches {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
