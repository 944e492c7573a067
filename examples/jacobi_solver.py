"""Scenario: solving a dense linear system across a workstation cluster.

The paper's first benchmark, end to end: a diagonally dominant system
``Ax = b`` solved by parallel Jacobi iteration, with the rows of ``A``
partitioned over one lightweight process per workstation and iterations
synchronised by an eventcount barrier.  Prints the speedup curve and
the coherence traffic behind it.

Run:  python examples/jacobi_solver.py
"""

import numpy as np

from repro.apps.jacobi import JacobiApp
from repro.exps.parallel import Job, run_jobs
from repro.metrics.report import ascii_table

N = 256
ITERS = 12


def main() -> None:
    print(f"Jacobi solver: {N}x{N} dense system, {ITERS} iterations\n")
    runs = run_jobs(
        [Job("jacobi", {"n": N, "iters": ITERS}, nprocs=p) for p in (1, 2, 4, 8)]
    )
    rows = []
    for run in runs:
        rows.append(
            [
                run.nprocs,
                f"{run.time_ns / 1e9:.3f}s",
                f"{runs[0].time_ns / run.time_ns:.2f}",
                run.counters["read_faults"],
                run.counters["write_faults"],
                run.counters["invalidations_sent"],
            ]
        )
    print(
        ascii_table(
            ["procs", "sim time", "speedup", "read faults", "write faults", "invalidations"],
            rows,
        )
    )
    # Prove the answer is right: residual of the parallel solution.
    app = JacobiApp(1, n=N, iters=ITERS)
    x = runs[-1].result
    residual = float(np.linalg.norm(app.A @ x - app.b))
    print(f"\n||Ax - b|| after {ITERS} iterations (8-proc run): {residual:.3e}")
    print("(each run's solution vector is checked against the sequential golden)")


if __name__ == "__main__":
    main()
