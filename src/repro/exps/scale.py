"""Scale-out benchmark: ring vs switched fabric at 64–256 nodes (``BENCH_scale.json``).

The pluggable-fabric question in one artifact: how much simulated
throughput does a switched point-to-point interconnect buy over the
paper's shared token ring as the cluster grows past the ring's design
point?  Two workload classes per (node count, backend) point, both from
:mod:`repro.exps.presets`:

- **fig5-class** (``scale_fig5``): communication-bound dot product,
  offered load growing linearly with nodes;
- **fig4-class** (``scale_fig4``): capacity-bound 3-D PDE whose data
  set exceeds any single node's memory.

The headline metric is **events per simulated second** —
``events_executed / (time_ns / 1e9)``.  Both numerator and denominator
are exact products of the deterministic simulation, so the metric is
bit-reproducible across hosts: on the serialising ring, simulated time
balloons with queueing delay while the event count barely moves, so the
ring's events/s collapses as nodes grow; the switched fabric's
concurrent links keep it up.  The whole record is therefore a pure
function of the code: CI regenerates it and runs ``git diff
--exit-code`` on it, and ``tests/exps/test_scale.py`` asserts the
crossover claim on the committed file (switched throughput beats ring
at every node count).

::

    python -m repro.exps.scale --out BENCH_scale.json

    # Windowed telemetry for selected points: per-point timeline JSONL +
    # OpenMetrics exports plus an SLO report with the saturation onset.
    python -m repro.exps.scale --nodes 64 --classes fig5 \
        --backends switched --timeline out_dir --sample-every 64

Runs are driven through :func:`repro.exps.parallel.run_jobs` — each
point is an independent deterministic simulation, so the sweep
parallelises across cores where available and falls back to a serial
loop on single-core machines, with identical numbers either way.
``--timeline`` mode instead runs its points serially in-process through
:func:`observe` (the observability handle holds the windowed series and
cannot cross a process boundary); the simulated numbers are identical
either way because observation is pure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Sequence

from repro.config import MILLISECOND, ClusterConfig, ConfigError, ObsConfig
from repro.exps.parallel import Job, RunResult, run_jobs
from repro.exps.presets import SCALE_NODE_COUNTS, scale_fig4, scale_fig5
from repro.net.fabric import FABRIC_BACKENDS

__all__ = ["scale_jobs", "observe", "run_scale", "run_timeline", "main"]

BACKENDS = tuple(FABRIC_BACKENDS)

CLASSES = {"fig5": scale_fig5, "fig4": scale_fig4}

#: Default SLO specs for ``--timeline`` (tuned to the fig5-class knee:
#: the scatter phase pushes read-fault service past 4 ms and the hottest
#: port past half occupancy).
DEFAULT_SLOS = ("p99(fault.read_ns) < 4ms", "link_utilisation < 50%")


def scale_jobs(
    nodes_list: Sequence[int] = SCALE_NODE_COUNTS,
    classes: Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
) -> list[Job]:
    """One :class:`Job` per workload class x node count x backend."""
    jobs: list[Job] = []
    for klass, preset in CLASSES.items():
        for nodes in nodes_list:
            for backend in BACKENDS:
                if (classes is None or klass in classes) and (
                    backends is None or backend in backends
                ):
                    app, app_args, config = preset(nodes, backend)
                    key = f"{klass}/n{nodes}/{backend}"
                    jobs.append(Job(app, app_args, nodes, config, key))
    return jobs


def observe(job: Job, window_ms: float, sample_every: int) -> RunResult:
    """Run one scale point in-process under a simulated-time timeline of
    ``window_ms`` windows, keeping ~1/``sample_every`` of span trees;
    the handle is ``RunResult.obs``."""
    obs = ObsConfig(
        timeline_window_ns=int(window_ms * MILLISECOND),
        sample_every=sample_every,
        hist_backend="logbucket",
    )
    config = (job.config or ClusterConfig()).replace(obs=obs)
    return dataclasses.replace(job, config=config).run()


def _events_per_sim_sec(result: RunResult) -> float:
    return result.events_executed / (result.time_ns / 1e9)


def run_scale(
    nodes_list: Sequence[int] = SCALE_NODE_COUNTS,
    workers: int | None = None,
    classes: Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
) -> dict[str, Any]:
    jobs = scale_jobs(nodes_list, classes=classes, backends=backends)
    results = run_jobs(jobs, workers=workers)
    runs: dict[str, Any] = {}
    for job, result in zip(jobs, results):
        assert job.config is not None
        runs[str(job.key)] = {
            "nodes": result.nprocs,
            "fabric": job.config.fabric.backend,
            "time_ns": result.time_ns,
            "events": result.events_executed,
            "events_per_sim_sec": round(_events_per_sim_sec(result), 1),
            "medium": {
                k: result.fabric_stats[k]
                for k in ("messages", "broadcasts", "bytes_sent", "busy_ns")
            },
        }
    return {
        "schema": "repro.scale/1",
        "measurement": (
            "events per simulated second (deterministic: both event count "
            "and simulated time are exact), per workload class x node "
            "count x fabric backend"
        ),
        "runs": runs,
    }


def run_timeline(
    out_dir: str,
    nodes_list: Sequence[int],
    classes: Sequence[str] | None = None,
    backends: Sequence[str] | None = None,
    window_ms: float = 20.0,
    sample_every: int = 64,
    slos: Sequence[str] = DEFAULT_SLOS,
) -> int:
    """Serial in-process observed runs over the selected scale points.

    Writes ``<klass>_n<nodes>_<backend>.jsonl`` (timeline records) and
    ``.om`` (OpenMetrics) into ``out_dir`` and prints each point's SLO
    report.  Returns the number of points run.
    """
    import os

    from repro.metrics.report import format_busiest_links, format_slo_report
    from repro.obs.export import openmetrics, save_timeline_jsonl
    from repro.obs.slo import evaluate, parse_slo

    specs = [parse_slo(text) for text in slos]
    os.makedirs(out_dir, exist_ok=True)
    jobs = scale_jobs(nodes_list, classes=classes, backends=backends)
    for job in jobs:
        result = observe(job, window_ms, sample_every)
        obs = result.obs
        tl = obs.timeline
        assert tl is not None
        nodes = job.nprocs
        stem = os.path.join(out_dir, str(job.key).replace("/", "_"))
        nrec = save_timeline_jsonl(f"{stem}.jsonl", obs, nodes, result.time_ns)
        with open(f"{stem}.om", "w", encoding="utf-8") as fh:
            fh.write(openmetrics(obs, nodes, result.time_ns))
        print(
            f"{job.key}: "
            f"{result.time_ns / 1e9:.2f} s simulated, "
            f"{tl.nwindows(result.time_ns)} windows, "
            f"{len(obs.spans)} spans recorded "
            f"({obs.spans.dropped} sampled out), "
            f"{nrec} records -> {stem}.jsonl"
        )
        print(format_busiest_links(tl.busiest_links(result.time_ns)))
        print(format_slo_report(evaluate(tl, result.time_ns, specs)))
        print()
    return len(jobs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exps.scale", description=__doc__
    )
    parser.add_argument(
        "--nodes", type=int, nargs="+", default=list(SCALE_NODE_COUNTS),
        help="node counts to sweep (default: 64 128 256)",
    )
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="parallel runner processes (default: REPRO_WORKERS, else "
        "the CPUs this process may run on)",
    )
    parser.add_argument(
        "--classes", nargs="+", choices=sorted(CLASSES), default=None,
        help="restrict to these workload classes (default: all)",
    )
    parser.add_argument(
        "--backends", nargs="+", choices=BACKENDS, default=None,
        help="restrict to these fabric backends (default: all)",
    )
    parser.add_argument(
        "--timeline", metavar="DIR",
        help="windowed-telemetry mode: run the selected points serially "
        "with a timeline, write JSONL + OpenMetrics exports into DIR, "
        "print SLO reports (incompatible with --out)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=20.0,
        help="timeline window width in simulated ms (--timeline only)",
    )
    parser.add_argument(
        "--sample-every", type=int, default=64,
        help="span sampling rate for --timeline (pure hash of span id)",
    )
    parser.add_argument(
        "--slo", action="append", default=None,
        # argparse %-formats help strings: the "%" in "< 50%" is escaped.
        help="SLO spec for --timeline, repeatable (default: "
        + "; ".join(DEFAULT_SLOS).replace("%", "%%") + ")",
    )
    args = parser.parse_args(argv)

    if args.timeline:
        if args.out:
            parser.error("--timeline is incompatible with --out")
        if args.window_ms * MILLISECOND < 1:
            parser.error(f"--window-ms must be at least 1e-06 (1 ns), not {args.window_ms:g}")
        if args.sample_every < 1:
            parser.error(f"--sample-every must be at least 1, not {args.sample_every}")
        run_timeline(
            args.timeline, args.nodes,
            classes=args.classes, backends=args.backends,
            window_ms=args.window_ms, sample_every=args.sample_every,
            slos=args.slo if args.slo is not None else DEFAULT_SLOS,
        )
        return 0

    try:
        doc = run_scale(
            args.nodes, workers=args.workers,
            classes=args.classes, backends=args.backends,
        )
    except ConfigError as exc:  # --workers or REPRO_WORKERS out of range
        parser.error(str(exc))
    for name, run in doc["runs"].items():
        print(
            f"{name}: {run['time_ns'] / 1e9:.2f} s simulated, "
            f"{run['events']} events, {run['events_per_sim_sec']} ev/sim-s"
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
