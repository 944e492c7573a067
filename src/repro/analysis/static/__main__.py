"""CLI: ``python -m repro.analysis.static [paths...] [--sarif FILE]``.

With no paths, runs the full verifier over the repo's fixed path sets
(lock discipline, wait-for deadlock-freedom, message exhaustiveness,
determinism) and prints the per-manager proof summary.  With explicit
paths, runs every analysis over just those files (what the mutation
corpus tests do).  ``--sarif`` additionally writes a SARIF 2.1.0 log
for CI annotation; ``--commute-matrix`` writes the certified
commutativity matrix the explorer's independence relation is built
from.  Exit status 1 iff there are findings.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.static.commute import save_matrix
from repro.analysis.static.engine import run_default, run_explicit
from repro.analysis.static.findings import write_sarif


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.static",
        description="static protocol verifier (see repro.analysis.static)",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories (default: the repo's fixed path sets)",
    )
    parser.add_argument(
        "--sarif", metavar="FILE",
        help="also write the findings as a SARIF 2.1.0 log",
    )
    parser.add_argument(
        "--commute-matrix", metavar="FILE",
        help="also write the certified commutativity matrix as JSON",
    )
    args = parser.parse_args(argv)

    report = run_explicit(args.paths) if args.paths else run_default()

    if args.sarif:
        write_sarif(report.findings, args.sarif)
    if args.commute_matrix:
        save_matrix(report.commute_matrix(), args.commute_matrix)

    for line in report.render_findings():
        print(line)
    if report.findings:
        print(f"{len(report.findings)} static-verify finding(s)")
        return 1
    for line in report.render_summary():
        print(line)
    print("static verify clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
