"""Command-line entry points for the dynamic checkers.

::

    # Post-mortem: check a recorded protocol trace offline.
    python -m repro.analysis replay trace.jsonl

    # Online: run a benchmark under the full checker (oracle + race
    # detector), optionally saving the stream the oracle was fed.
    python -m repro.analysis run --app jacobi --algorithm dynamic \
        --nodes 4 --trace trace.jsonl

    # Model-check a small configuration across many schedules (a big
    # DFS sweep on --jobs processes, default REPRO_WORKERS or one per
    # CPU; same result).
    python -m repro.analysis explore --algorithm dynamic --nodes 2 \
        --pages 1 --workload rw --strategy dfs

    # Re-run the exhaustive CI sweeps (exit 1 if one is truncated) and
    # rewrite their record; CI diffs it against the committed file.
    python -m repro.analysis explore-bench --out BENCH_explore.json

    # Shrink a violating schedule, then re-execute it.
    python -m repro.analysis minimize counterexamples.jsonl
    python -m repro.analysis replay-schedule counterexamples.jsonl

Exit status is non-zero when any invariant violation (or, for ``run``,
an unexpected benchmark result; for ``explore``, a truncated sweep) is
found, so CI can gate on it.  A flag value out of range is a usage
error, exit 2.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter
from typing import Any

from repro.analysis.replay import record_stream, replay_file, summarize
from repro.config import ClusterConfig, ConfigError
from repro.metrics.collect import VIOLATION_PREFIX
from repro.net.fabric import FABRIC_BACKENDS
from repro.obs.jsonl import write_jsonl


#: Constructor arguments per registered app.  Sizes are scaled down from
#: the paper's: a violation in a small run is a violation.
_APP_ARGS: dict[str, dict[str, int]] = {
    "dotprod": {"n": 4096},
    "jacobi": {"n": 48, "iters": 3},
    "matmul": {"n": 48},
    "pde3d": {"m": 12, "iters": 3},
    "sort": {"nrecords": 1024},
    "tsp": {"ncities": 8},
}


def _build_app(name: str, nprocs: int) -> Any:
    from repro.exps.parallel import app_constructor

    return app_constructor(name)(nprocs, **_APP_ARGS[name])


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.api.ivy import Ivy

    config = ClusterConfig(nodes=args.nodes, checker=True).with_svm(
        algorithm=args.algorithm
    )
    ivy = Ivy(config)
    stream = record_stream(ivy.cluster)
    app = _build_app(args.app, args.nodes)
    result = ivy.run(app.main)
    app.check(result)

    counters = ivy.cluster.total_counters()
    violations = counters.violations()
    oracle = ivy.cluster.oracle
    detector = ivy.races
    races = detector.races if detector is not None else []
    print(
        f"{args.app} on {args.nodes} nodes ({args.algorithm}): result ok, "
        f"{oracle.checks_run if oracle else 0} oracle checks, "
        f"{len(stream)} protocol events"
    )
    if detector is not None:
        print(
            f"  race: {detector.accesses:,} accesses / "
            f"{detector.words_covered:,} words / {len(detector.runs):,} runs "
            f"(peak {detector.runs_peak:,})"
        )
    for rule, count in sorted(violations.items()):
        print(f"  {VIOLATION_PREFIX}{rule}: {count}")
    for race in races:
        print(race.format())
    if args.trace:
        count = write_jsonl(args.trace, stream)
        print(f"saved {count} events to {args.trace}")
    # Benign application-level races (TSP's optimistic best-bound read)
    # are findings about the *program*; only coherence violations mean
    # the *memory* broke.
    coherence = {k: v for k, v in violations.items() if k != "race"}
    return 1 if coherence else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        machine = replay_file(args.trace)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.trace}")
    print(summarize(machine))
    return 1 if machine.violations else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.analysis import explore as ex

    scenario = ex.Scenario(
        algorithm=args.algorithm,
        nodes=args.nodes,
        pages=args.pages,
        workload=args.workload,
        seed=args.seed,
        mutation=args.mutation or None,
        hint_period=args.hint_period,
        fabric=args.fabric,
    )
    started = perf_counter()
    if args.strategy == "dfs":
        result = ex.explore_dfs(
            scenario,
            por=not args.no_por,
            max_schedules=args.max_schedules,
            max_events=args.max_events,
            jobs=args.jobs,
        )
    elif args.strategy == "pct":
        result = ex.explore_pct(
            scenario, samples=args.samples, max_events=args.max_events
        )
    elif args.strategy == "delay":
        result = ex.explore_delay(
            scenario,
            pairs=args.pairs,
            max_schedules=args.max_schedules,
            max_events=args.max_events,
        )
    else:
        raise SystemExit(f"unknown strategy {args.strategy!r}")
    wall = perf_counter() - started
    where = f"on {result.workers} workers" if result.workers else "in-process"

    statuses = ", ".join(
        f"{status}={count}" for status, count in sorted(result.statuses.items())
    )
    print(
        f"{scenario.workload} on {scenario.nodes} nodes / {scenario.pages} "
        f"pages ({scenario.algorithm}, {result.strategy}, "
        f"{result.relation} relation): "
        f"{result.schedules} schedules [{statuses}]"
        f"{' (truncated)' if result.truncated else ''}, "
        f"{result.events} events, {result.schedules / wall:,.0f} schedules/s "
        f"{where}, "
        f"{len(result.fingerprints)} distinct final states"
    )
    if result.strategy == "dfs" and not args.no_por:
        print(f"  sleep sets pruned {result.sleep_pruned} children")
    if result.extractor_errors:
        per_op = ", ".join(
            f"{op}={count}"
            for op, count in sorted(result.extractor_errors.items())
        )
        total = sum(result.extractor_errors.values())
        print(
            f"  explore.extractor_error={total} ({per_op}): payloads did "
            f"not fit their op's declared page; affected deliveries fell "
            f"back to p? (sound, but POR is weakened)"
        )
    violations = result.violations
    if violations and args.minimize:
        violations = [
            ex.minimize_schedule(scenario, ce.choices, ce.drops)
            for ce in violations[: args.minimize]
        ]
    for ce in violations[:10]:
        print(
            f"  {ce.status} ({ce.rule}): choices={list(ce.choices)} "
            f"drops={list(ce.drops)}"
        )
    if args.out:
        count = ex.save_counterexamples(
            args.out, scenario, violations, relation=result.relation
        )
        print(f"saved {count} schedule(s) to {args.out}")
    if result.truncated:
        print("FAIL: truncated sweep proves nothing")
    return 0 if result.clean else 1


def _cmd_explore_bench(args: argparse.Namespace) -> int:
    import json

    from repro.analysis import explorebench as eb

    bench = eb.run_bench(jobs=args.jobs)
    truncated = 0
    for key, sweep in sorted(bench["sweeps"].items()):
        print(
            f"{key}: {sweep['schedules']} schedules "
            f"({sweep['states']} distinct final states, "
            f"{sweep['sleep_pruned']} children pruned)"
        )
        if sweep["truncated"]:
            print(f"FAIL {key}: truncated sweep proves nothing")
            truncated += 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"saved bench results to {args.out}")
    if truncated:
        return 1
    print("explore-bench ok: no sweep truncated")
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    from repro.analysis import explore as ex

    try:
        scenario, schedules = ex.load_artifact(args.artifact)
    except FileNotFoundError:
        raise SystemExit(f"no such artifact: {args.artifact}")
    minimized = []
    for ce in schedules:
        small = ex.minimize_schedule(
            scenario, ce.choices, ce.drops, max_events=args.max_events
        )
        minimized.append(small)
        print(
            f"{ce.rule}: {len(ce.choices)} choice(s) + {len(ce.drops)} "
            f"drop(s) -> {len(small.choices)} + {len(small.drops)}"
        )
    out = args.out or args.artifact
    count = ex.save_counterexamples(out, scenario, minimized)
    print(f"saved {count} minimized schedule(s) to {out}")
    return 0


def _cmd_replay_schedule(args: argparse.Namespace) -> int:
    from repro.analysis import explore as ex

    try:
        pairs = ex.replay_artifact(args.artifact, max_events=args.max_events)
    except FileNotFoundError:
        raise SystemExit(f"no such artifact: {args.artifact}")
    failures = 0
    for recorded, run in pairs:
        reproduced = (run.status, run.rule) == (recorded.status, recorded.rule)
        failures += 0 if reproduced else 1
        verdict = "reproduced" if reproduced else "DID NOT REPRODUCE"
        print(
            f"choices={list(recorded.choices)} drops={list(recorded.drops)}: "
            f"recorded {recorded.status} ({recorded.rule}), "
            f"replay {run.status} ({run.rule}) -> {verdict}"
        )
    if not pairs:
        print("artifact contains no schedules")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="dynamic correctness checkers for the SVM simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a benchmark under the checkers")
    run.add_argument("--app", default="jacobi", help=" | ".join(sorted(_APP_ARGS)))
    run.add_argument(
        "--algorithm", default="dynamic",
        help="centralized | fixed | dynamic | broadcast",
    )
    run.add_argument("--nodes", type=int, default=4)
    run.add_argument("--trace", default="", help="save the protocol trace (JSONL)")
    run.set_defaults(func=_cmd_run)

    replay = sub.add_parser("replay", help="check a recorded trace offline")
    replay.add_argument("trace", help="JSONL file written by `run --trace`")
    replay.set_defaults(func=_cmd_replay)

    explore = sub.add_parser(
        "explore", help="model-check schedules of a small configuration"
    )
    explore.add_argument(
        "--algorithm", default="dynamic",
        help="centralized | fixed | dynamic | broadcast",
    )
    explore.add_argument("--nodes", type=int, default=2)
    explore.add_argument("--pages", type=int, default=1)
    explore.add_argument(
        "--workload", default="rw", help="rw | chown | mixed | mutate-upgrade"
    )
    explore.add_argument("--strategy", default="dfs", help="dfs | pct | delay")
    explore.add_argument("--seed", type=int, default=1988)
    explore.add_argument(
        "--mutation", default="",
        help="seeded page-table corruption (e.g. ghost-copyset)",
    )
    explore.add_argument(
        "--hint-period", type=int, default=0,
        help="dynamic manager hint-broadcast period (fan-out ties)",
    )
    explore.add_argument(
        "--fabric", default="ring",
        help=f"network backend to explore on: {' | '.join(FABRIC_BACKENDS)}",
    )
    explore.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="processes a dfs sweep executes its schedules on (default: "
        "REPRO_WORKERS, else the CPUs this process may run on); the "
        "result is the same for every N",
    )
    explore.add_argument("--max-schedules", type=int, default=10_000)
    explore.add_argument("--max-events", type=int, default=50_000)
    explore.add_argument("--samples", type=int, default=50, help="pct samples")
    explore.add_argument(
        "--pairs", action="store_true", help="delay: also drop frame pairs"
    )
    explore.add_argument(
        "--no-por", action="store_true",
        help="dfs: disable the sleep-set partial-order reduction",
    )
    explore.add_argument(
        "--minimize", type=int, default=0, metavar="N",
        help="delta-debug the first N violating schedules before reporting",
    )
    explore.add_argument(
        "--out", default="", help="save violating schedules (JSONL artifact)"
    )
    explore.set_defaults(func=_cmd_explore)

    bench = sub.add_parser(
        "explore-bench",
        help="run the exhaustive CI sweeps; fail if any is truncated",
    )
    bench.add_argument(
        "--out", default="", help="write the bench results (JSON)"
    )
    bench.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="processes executing each sweep's schedules (default: "
        "REPRO_WORKERS, else the CPUs this process may run on); the "
        "record is the same for every N",
    )
    bench.set_defaults(func=_cmd_explore_bench)

    minimize = sub.add_parser(
        "minimize", help="shrink every schedule in a counterexample artifact"
    )
    minimize.add_argument("artifact", help="JSONL artifact from explore --out")
    minimize.add_argument("--out", default="", help="output path (default: in place)")
    minimize.add_argument("--max-events", type=int, default=50_000)
    minimize.set_defaults(func=_cmd_minimize)

    replay_schedule = sub.add_parser(
        "replay-schedule", help="re-execute schedules from an artifact"
    )
    replay_schedule.add_argument("artifact", help="JSONL artifact from explore --out")
    replay_schedule.add_argument("--max-events", type=int, default=50_000)
    replay_schedule.set_defaults(func=_cmd_replay_schedule)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
