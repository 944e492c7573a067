"""Machine-readable benchmark artifacts (``BENCH_obs.json``, ``BENCH_perf.json``).

A tiny harness that runs scaled-down Figure 5 and Figure 4 (capacity)
configurations and writes one JSON document with simulated runtimes,
key protocol counters, and the observability profiler's cluster-time
attribution per run — so regressions in either *performance* (simulated
time drifting) or *behaviour* (fault/disk counts drifting) are visible
to tooling without parsing ASCII tables.  CI's ``obs-smoke`` job uploads
the file as a workflow artifact.

::

    python -m repro.exps.bench --out BENCH_obs.json

The workloads are deliberately small (a few seconds of wall clock): the
artifact is a tripwire, not a calibration.  Determinism makes the
numbers exact — two checkouts producing different values differ in
behaviour, not in measurement noise.

**Wall-clock mode** (``--perf``) measures the *simulator itself*: each
case runs with observability off (the configuration the fast paths
serve), best-of-``--repeats`` wall time, and reports kernel events per
second.  ``events`` is deterministic — a drift there is a behaviour
change, not noise — while ``wall_s`` is hardware-dependent, so the
committed ``BENCH_perf.json`` is a *trajectory record* for one
environment, not a portable constant.  ``--check`` compares a fresh
measurement against the committed file (events must match exactly;
events/sec may regress at most ``--tolerance``); ``--profile-wall``
wraps one pass in cProfile and prints/saves the hot functions.

::

    python -m repro.exps.bench --perf --out BENCH_perf.json
    python -m repro.exps.bench --perf --check BENCH_perf.json
    python -m repro.exps.bench --perf --profile-wall --profile-out bench.pstats
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.pde3d import Pde3dApp
from repro.config import ClusterConfig
from repro.exps.presets import PAGE_BYTES
from repro.metrics.speedup import run_app
from repro.obs import CATEGORIES, Observability

__all__ = ["run_bench", "run_perf", "check_perf", "host_metadata", "main"]

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


def host_metadata() -> dict[str, Any]:
    """What machine produced a wall-clock number (recorded per artifact).

    ``events`` is portable; ``events_per_sec`` is not — the committed
    trajectory only means something next to the host that measured it.
    Best-effort on non-Linux: absent facts are reported as ``None``
    rather than guessed.
    """
    cpu_model: str | None = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu_model = platform.processor() or None
    governor: str | None = None
    try:
        with open(
            "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            encoding="utf-8",
        ) as fh:
            governor = fh.read().strip()
    except OSError:
        pass
    return {
        "cpu_model": cpu_model,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        # "performance" pins the clock; anything else ("powersave",
        # "schedutil", None=unknown) means wall numbers wander with load.
        "cpufreq_governor": governor,
        "platform": platform.platform(),
    }


def _capacity_config(m: int) -> ClusterConfig:
    # The Figure 4 regime at bench scale (see presets.pde_capacity).
    vector_pages = (m**3 * 8 + PAGE_BYTES - 1) // PAGE_BYTES
    return ClusterConfig().with_memory(
        frames=int(1.8 * vector_pages), replacement="random"
    )


def _bench_cases() -> list[tuple[str, Any, int, ClusterConfig | None]]:
    """(name, factory, nprocs, config) — small but representative."""
    return [
        ("dotprod_p1", lambda p: DotProductApp(p, n=32768), 1, None),
        ("dotprod_p2", lambda p: DotProductApp(p, n=32768), 2, None),
        ("jacobi_p1", lambda p: JacobiApp(p, n=128, iters=6), 1, None),
        ("jacobi_p2", lambda p: JacobiApp(p, n=128, iters=6), 2, None),
        ("pde_capacity_p1", lambda p: Pde3dApp(p, m=14, iters=4), 1, _capacity_config(14)),
        ("pde_capacity_p2", lambda p: Pde3dApp(p, m=14, iters=4), 2, _capacity_config(14)),
    ]


def _timeline_bench(nodes: int = 64, window_ms: int = 20, sample_every: int = 64) -> dict[str, Any]:
    """Windowed-telemetry section: one sampled ≥64-node switched run.

    The fig5-class scale point observed with a simulated-time timeline:
    per-window cluster profile attribution, busiest links, and the SLO
    report whose ``saturation_onset_window`` is the artifact's headline —
    the first 20 ms window where the run stops meeting its latency or
    link-occupancy targets.  Every value is deterministic (sampling is a
    pure hash of span ids), so drift here is behaviour change.
    """
    from repro.config import MILLISECOND
    from repro.exps.presets import scale_fig5
    from repro.exps.parallel import APP_REGISTRY
    from repro.exps.scale import DEFAULT_SLOS
    from repro.obs.slo import evaluate, parse_slo

    app, app_args, config = scale_fig5(nodes, "switched")
    ctor = APP_REGISTRY[app]
    obs = Observability(
        timeline_window_ns=window_ms * MILLISECOND,
        sample_every=sample_every,
        hist_backend="logbucket",
    )
    res = run_app(
        lambda p: ctor(p, **app_args), nodes, config=config, check=True, obs=obs
    )
    tl = obs.timeline
    assert tl is not None
    per_node = obs.window_breakdowns(nodes, res.time_ns)
    nwin = tl.nwindows(res.time_ns)
    profile = [
        {cat: sum(
            windows[w].get(cat, 0)
            for windows in per_node.values() if w < len(windows)
        ) for cat in CATEGORIES}
        for w in range(nwin)
    ]
    report = evaluate(
        tl, res.time_ns, [parse_slo(text) for text in DEFAULT_SLOS]
    )
    return {
        "case": f"fig5/n{nodes}/switched",
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
    for name, factory, nprocs, config in _bench_cases():
        obs = Observability()
        res = run_app(factory, nprocs, config=config, obs=obs)
        cluster = Observability.cluster_breakdown(obs.breakdown(nprocs, res.time_ns))
        runs[name] = {
            "nprocs": nprocs,
            "time_ns": res.time_ns,
            "counters": {k: res.counters[k] for k in KEY_COUNTERS},
            "profile_ns": {cat: cluster[cat] for cat in CATEGORIES},
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


def _perf_run_case(
    factory: Any, nprocs: int, config: ClusterConfig | None
) -> tuple[float, int]:
    """One obs-off wall-clock measurement: (seconds, kernel events)."""
    base = config or ClusterConfig()
    app = factory(nprocs)
    ivy = Ivy(base.replace(nodes=nprocs))
    started = time.perf_counter()
    ivy.run(app.main)
    wall = time.perf_counter() - started
    return wall, ivy.cluster.sim.events_executed


def run_perf(repeats: int = 3) -> dict[str, Any]:
    """Wall-clock throughput of the simulator over the bench suite.

    Observability is *off* (the default production configuration and the
    one the hot-path fast paths serve); each case reports its
    best-of-``repeats`` wall time — the minimum is the standard estimator
    under one-sided scheduler/host noise.
    """
    runs: dict[str, Any] = {}
    total_events = 0
    total_wall = 0.0
    for name, factory, nprocs, config in _bench_cases():
        best = float("inf")
        events = 0
        for _ in range(repeats):
            wall, events = _perf_run_case(factory, nprocs, config)
            best = min(best, wall)
        runs[name] = {
            "wall_s": round(best, 5),
            "events": events,
            "events_per_sec": round(events / best),
        }
        total_events += events
        total_wall += best
    return {
        "schema": "repro.bench-perf/1",
        "measurement": (
            "best-of-N wall clock per case, observability disabled; "
            "'events' is deterministic, 'events_per_sec' is hardware-bound"
        ),
        "repeats": repeats,
        "host": host_metadata(),
        "runs": runs,
        "aggregate": {
            "events": total_events,
            "wall_s": round(total_wall, 5),
            "events_per_sec": round(total_events / total_wall),
        },
    }


def check_perf(
    doc: dict[str, Any], baseline: dict[str, Any], tolerance: float = 0.30
) -> list[str]:
    """Compare a fresh ``run_perf`` doc against a committed baseline.

    Returns human-readable problems (empty = pass).  Event counts must
    match *exactly* — they are deterministic, so a drift is a behaviour
    change and the baseline must be regenerated deliberately.  Throughput
    may regress at most ``tolerance`` (machine jitter makes tighter
    bounds flaky in CI).
    """
    problems: list[str] = []
    for name, base_run in baseline["runs"].items():
        run = doc["runs"].get(name)
        if run is None:
            problems.append(f"{name}: case missing from this measurement")
            continue
        if run["events"] != base_run["events"]:
            problems.append(
                f"{name}: events {run['events']} != baseline {base_run['events']} "
                "(behaviour drift — regenerate BENCH_perf.json deliberately)"
            )
    floor = baseline["aggregate"]["events_per_sec"] * (1.0 - tolerance)
    got = doc["aggregate"]["events_per_sec"]
    if got < floor:
        problems.append(
            f"aggregate events/sec {got} below floor {floor:.0f} "
            f"(baseline {baseline['aggregate']['events_per_sec']}, "
            f"tolerance {tolerance:.0%})"
        )
    return problems


def _profile_wall(out: str | None) -> None:
    """One cProfile'd pass over the suite; print hot functions."""
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    for _, factory, nprocs, config in _bench_cases():
        _perf_run_case(factory, nprocs, config)
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("tottime")
    stats.print_stats(15)
    if out:
        stats.dump_stats(out)
        print(f"profile written to {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exps.bench", description=__doc__
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--perf", action="store_true",
        help="measure wall-clock throughput (obs off) instead of simulated metrics",
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a committed BENCH_perf.json; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional events/sec regression for --check (default 0.30)",
    )
    parser.add_argument(
        "--profile-wall", action="store_true",
        help="cProfile one pass of the suite and print hot functions",
    )
    parser.add_argument("--profile-out", default=None, help="dump pstats here")
    args = parser.parse_args(argv)

    if args.profile_wall:
        _profile_wall(args.profile_out)
        return 0

    if args.perf:
        doc = run_perf(repeats=args.repeats)
        for name, run in doc["runs"].items():
            print(
                f"{name}: {run['wall_s'] * 1e3:.1f} ms wall, "
                f"{run['events']} events, {run['events_per_sec']} ev/s"
            )
        agg = doc["aggregate"]
        print(f"aggregate: {agg['events']} events in {agg['wall_s']:.3f} s "
              f"= {agg['events_per_sec']} ev/s")
        if args.check:
            with open(args.check, encoding="utf-8") as fh:
                baseline = json.load(fh)
            problems = check_perf(doc, baseline, tolerance=args.tolerance)
            for problem in problems:
                print(f"PERF CHECK FAILED: {problem}")
            if problems:
                return 1
            print(f"perf check passed against {args.check}")
        if args.out:
            # Preserve the committed baseline note if one exists at the
            # destination — the trajectory section is hand-maintained.
            doc_out = dict(doc)
            try:
                with open(args.out, encoding="utf-8") as fh:
                    doc_out["trajectory"] = json.load(fh).get("trajectory")
            except (OSError, ValueError):
                pass
            if doc_out.get("trajectory") is None:
                doc_out.pop("trajectory", None)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(doc_out, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {args.out}")
        return 0

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
