"""Machine-readable benchmark artifact (``BENCH_obs.json``).

A tiny harness that runs scaled-down Figure 5 and Figure 4 (capacity)
configurations and writes one JSON document with simulated runtimes,
kernel event counts, key protocol counters, and the observability
profiler's cluster-time attribution per run — so regressions in either
*performance* (simulated time drifting) or *behaviour* (fault/disk/event
counts drifting) are visible to tooling without parsing ASCII tables.
CI's ``obs-smoke`` job uploads the file as a workflow artifact.

::

    python -m repro.exps.bench --out BENCH_obs.json

The workloads are deliberately small (a few seconds of wall clock): the
artifact is a tripwire, not a calibration.  Determinism makes the
numbers exact — two checkouts producing different values differ in
behaviour, not in measurement noise.  Host time is measured by one
harness only, ``python -m bench``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.config import ClusterConfig
from repro.exps.parallel import Job
from repro.exps.presets import capacity_config
from repro.exps.scale import DEFAULT_SLOS, observe, scale_jobs
from repro.obs import SimProfiler

__all__ = ["run_bench", "main"]

#: Counters worth tracking run-over-run (behavioural tripwires).
KEY_COUNTERS = (
    "read_faults",
    "write_faults",
    "read_fault_ns",
    "write_fault_ns",
    "invalidations_sent",
    "faults_forwarded",
    "page_copies_sent",
    "page_transfers_sent",
    "disk_reads",
    "disk_writes",
    "evictions",
)


def _bench_cases() -> list[tuple[str, Job]]:
    """(name, job) — small but representative, each run observed."""
    observed = ClusterConfig(obs=True)
    # The Figure 4 regime at bench scale (see presets.capacity_config).
    capacity = capacity_config(14, base=observed)
    return [
        ("dotprod_p1", Job("dotprod", {"n": 32768}, nprocs=1, config=observed)),
        ("dotprod_p2", Job("dotprod", {"n": 32768}, nprocs=2, config=observed)),
        ("jacobi_p1", Job("jacobi", {"n": 128, "iters": 6}, nprocs=1, config=observed)),
        ("jacobi_p2", Job("jacobi", {"n": 128, "iters": 6}, nprocs=2, config=observed)),
        ("pde_capacity_p1", Job("pde3d", {"m": 14, "iters": 4}, nprocs=1, config=capacity)),
        ("pde_capacity_p2", Job("pde3d", {"m": 14, "iters": 4}, nprocs=2, config=capacity)),
    ]


def _timeline_bench(window_ms: int = 20, sample_every: int = 64) -> dict[str, Any]:
    """Windowed-telemetry section: one sampled ≥64-node switched run.

    The fig5-class scale point observed with a simulated-time timeline:
    per-window cluster profile attribution, busiest links, and the SLO
    report whose ``saturation_onset_window`` is the artifact's headline —
    the first 20 ms window where the run stops meeting its latency or
    link-occupancy targets.  Every value is deterministic (sampling is a
    pure hash of span ids), so drift here is behaviour change.
    """
    from repro.obs.slo import evaluate, parse_slo

    (job,) = scale_jobs([64], ["fig5"], ["switched"])
    nodes = job.nprocs
    res = observe(job, window_ms, sample_every)
    obs = res.obs
    tl = obs.timeline
    assert tl is not None
    per_node = obs.window_breakdowns(nodes, res.time_ns)
    nwin = tl.nwindows(res.time_ns)
    profile = [
        SimProfiler.cluster(ws[w] for ws in per_node.values() if w < len(ws))
        for w in range(nwin)
    ]
    report = evaluate(
        tl, res.time_ns, [parse_slo(text) for text in DEFAULT_SLOS]
    )
    return {
        "case": job.key,
        "nodes": nodes,
        "fabric": "switched",
        "time_ns": res.time_ns,
        "events": res.events_executed,
        "window_ns": tl.window_ns,
        "windows": nwin,
        "sample_every": sample_every,
        "spans_recorded": len(obs.spans),
        "spans_dropped": obs.spans.dropped,
        "profile_ns_per_window": profile,
        "busiest_links": [
            {"link": name, "busy_ns": busy, "peak_window_utilisation": round(peak, 4)}
            for name, busy, peak in tl.busiest_links(res.time_ns, limit=4)
        ],
        "slo": report.summary(),
    }


def run_bench() -> dict[str, Any]:
    runs: dict[str, Any] = {}
    for name, job in _bench_cases():
        res = job.run()
        obs = res.obs
        runs[name] = {
            "nprocs": job.nprocs,
            "time_ns": res.time_ns,
            "events": res.events_executed,
            "counters": {k: res.counters[k] for k in KEY_COUNTERS},
            "profile_ns": SimProfiler.cluster(
                obs.breakdown(job.nprocs, res.time_ns).values()
            ),
            "spans": len(obs.spans),
        }
    # Simulated times are deterministic; derived ratios are free to add.
    doc = {
        "schema": "repro.bench/1",
        "runs": runs,
        "speedups": {
            "dotprod": runs["dotprod_p1"]["time_ns"] / runs["dotprod_p2"]["time_ns"],
            "jacobi": runs["jacobi_p1"]["time_ns"] / runs["jacobi_p2"]["time_ns"],
            "pde_capacity": (
                runs["pde_capacity_p1"]["time_ns"] / runs["pde_capacity_p2"]["time_ns"]
            ),
        },
        "timeline": _timeline_bench(),
    }
    return doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exps.bench", description=__doc__
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    args = parser.parse_args(argv)

    doc = run_bench()
    out = args.out or "BENCH_obs.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, run in doc["runs"].items():
        print(f"{name}: {run['time_ns'] / 1e6:.1f} ms simulated")
    for app, speedup in doc["speedups"].items():
        print(f"speedup {app} p1->p2: {speedup:.2f}x")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
