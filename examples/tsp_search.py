"""Scenario: parallel branch-and-bound search with a shared work pool.

The paper's traveling-salesman benchmark as a standalone application:
the graph, the branch pool, and the incumbent best tour all live in the
shared virtual memory; workers on every processor take branches under a
shared binary lock and prune against the racing incumbent.  Shows the
search anomalies the paper cites: the number of nodes expanded varies
with the schedule, while the optimal answer never does.

Run:  python examples/tsp_search.py
"""

from repro.apps.tsp import TspApp
from repro.exps.parallel import run_app
from repro.metrics.report import ascii_table

CITIES = 12
SEED = 33


def main() -> None:
    print(f"TSP branch-and-bound: {CITIES} cities, random symmetric weights\n")
    optimal = TspApp(1, ncities=CITIES, seed=SEED).golden()
    rows = []
    base_time = None
    for p in (1, 2, 4, 8):
        r = run_app(lambda q: TspApp(q, ncities=CITIES, seed=SEED), p)
        if base_time is None:
            base_time = r.time_ns
        rows.append(
            [
                p,
                f"{r.time_ns / 1e9:.3f}s",
                f"{base_time / r.time_ns:.2f}",
                r.counters["tsp_nodes_expanded"],
                r.counters["tsp_incumbent_updates"],
                f"{r.result:.2f}",
            ]
        )
    print(
        ascii_table(
            ["procs", "sim time", "speedup", "nodes expanded", "incumbent updates", "best tour"],
            rows,
        )
    )
    print(f"\nexact optimum (Held-Karp): {optimal:.2f} — every row matches it.")
    print("Node counts differ run to run: the search anomalies of [19].")


if __name__ == "__main__":
    main()
