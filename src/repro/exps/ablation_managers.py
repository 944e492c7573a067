"""Ablation — the memory-coherence manager algorithms.

The centralized manager funnels every fault through one processor; the
fixed distributed manager spreads that duty by ``H(p) = p mod N``; the
dynamic distributed manager forwards along probOwner hints, shortening
chains as it learns.  Two variants from the same analysis are included
as extensions: the dynamic manager with periodic hint broadcasts, and
the pure broadcast manager (owner location by ring broadcast — cheap in
state, expensive in interrupts and messages).  This experiment runs the
same workload under each and reports fault latency and message traffic.
"""

from __future__ import annotations

from repro.config import ClusterConfig
from repro.exps.experiment import Column, Experiment, Record, main, seconds
from repro.exps.parallel import Job, run_jobs

ALGORITHMS = ("centralized", "fixed", "dynamic", "dynamic+bcast", "broadcast")
NPROCS = 4


def _config(algorithm: str) -> ClusterConfig:
    if algorithm == "dynamic+bcast":
        return ClusterConfig().with_svm(algorithm="dynamic", dynamic_broadcast_period=4)
    return ClusterConfig().with_svm(algorithm=algorithm)


def run(full: bool) -> list[Record]:
    n, iters = (256, 16) if full else (128, 8)
    jobs = [
        Job("jacobi", {"n": n, "iters": iters}, nprocs=NPROCS, config=_config(a), key=a)
        for a in ALGORITHMS
    ]
    records = []
    for job, r in zip(jobs, run_jobs(jobs)):
        faults = r.counters["read_faults"] + r.counters["write_faults"]
        fault_ns = r.counters["read_fault_ns"] + r.counters["write_fault_ns"]
        records.append({
            "algorithm": job.key,
            "time_ns": r.time_ns,
            "messages": r.fabric_stats["messages"],
            "faults": faults,
            "forwards": r.counters["faults_forwarded"],
            "mean_fault_us": (fault_ns / faults / 1000.0) if faults else 0.0,
        })
    return records


def shape(records: list[Record]) -> None:
    by_name = {r["algorithm"]: r for r in records}
    times = [by_name[a]["time_ns"] for a in ("centralized", "fixed", "dynamic")]
    # Same workload, same correctness; execution times within 25%.
    assert max(times) / min(times) < 1.25, times
    # Dynamic's hint chains stay short: on this fault pattern it forwards
    # no more than the fixed distributed manager does.
    assert by_name["dynamic"]["forwards"] <= by_name["fixed"]["forwards"]
    # The broadcast manager never forwards but floods the ring and slows
    # every fault — the trade-off that motivated the other algorithms.
    bcast = by_name["broadcast"]
    assert bcast["forwards"] == 0
    assert bcast["messages"] > 1.4 * by_name["dynamic"]["messages"]
    assert bcast["mean_fault_us"] > by_name["dynamic"]["mean_fault_us"]
    # Every algorithm serviced a comparable number of faults.
    faults = [r["faults"] for r in records]
    assert max(faults) - min(faults) < 0.25 * max(faults)


EXPERIMENT = Experiment(
    name="ablation_managers",
    title=f"Ablation — coherence manager algorithms (jacobi, {NPROCS} processors)",
    columns=(
        Column("algorithm", "algorithm"),
        Column("exec time", "time_ns", seconds),
        Column("ring msgs", "messages"),
        Column("faults", "faults"),
        Column("forwards", "forwards"),
        Column("mean fault", "mean_fault_us", lambda us: f"{us:.0f}us"),
    ),
    run=run,
    shape=shape,
    paper=(
        "three manager algorithms were implemented \"for experimental "
        'purposes"; Li & Hudak\'s analysis gives their trade-offs.'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
