"""Command-line entry points for the observability layer.

::

    # Run a benchmark with full observability and print the report:
    # latency/fan-out/occupancy instruments, then the per-node
    # simulated-time profile (compute / fault / network / disk / idle).
    python -m repro.obs report --app dotprod --nodes 2

    # The Figure 4 story: run the PDE under memory pressure and watch
    # the disk share collapse from one node to two.
    python -m repro.obs report --app pde3d --capacity --nodes 1
    python -m repro.obs report --app pde3d --capacity --nodes 2

    # Export a Perfetto-loadable Chrome trace (open at ui.perfetto.dev),
    # optionally alongside the raw span stream (JSONL):
    python -m repro.obs export --app dotprod --nodes 2 \
        --out dotprod_trace.json --spans dotprod_spans.jsonl

    # Aggregate spans: where does simulated time actually go?
    python -m repro.obs top --app jacobi --nodes 4

    # Windowed timeline: per-window profile, busiest links over time,
    # SLO verdicts; JSONL + OpenMetrics exports.  --sample-every keeps
    # 1/N of span trees (pure hash of the span id — reproducible);
    # --fail-on-violation exits 1 when an SLO is violated.
    python -m repro.obs timeline --app dotprod --nodes 64 \
        --fabric switched --window-ms 500 --sample-every 64 \
        --slo "p99(fault.read_ns) < 60ms" --slo "link_utilisation < 90%" \
        --out timeline.jsonl --metrics-out metrics.om

    # Validate any export against its schema; the format (Chrome trace,
    # timeline JSONL, OpenMetrics) is read from the content:
    python -m repro.obs validate dotprod_trace.json
    python -m repro.obs validate timeline.jsonl
    python -m repro.obs validate metrics.om

Exit status is non-zero when a run fails its numerical check, an SLO
fails under --fail-on-violation, or an export fails validation, so CI
can gate on it (the ``obs-smoke`` job does).  A bad flag value (``--nodes
0``, ``--sample-every 0``, an unknown ``--algorithm``) is a usage error:
one line naming the config field, exit 2.  So are a ``--window-ms``
below one simulated nanosecond (0 means no timeline, except under
``timeline``, which needs one) and ``--capacity`` with any app but
pde3d, whose working set it is sized for.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.config import MILLISECOND, ClusterConfig, ConfigError, ObsConfig
from repro.exps.parallel import Job, RunResult
from repro.exps.presets import capacity_config
from repro.net.fabric import FABRIC_BACKENDS
from repro.obs.export import (
    openmetrics,
    save_chrome_trace,
    save_timeline_jsonl,
    validate_chrome_trace,
    validate_openmetrics,
    validate_timeline_jsonl,
)

#: Registry app -> constructor kwargs besides ``nprocs``.  Sizes are
#: scaled down from the paper's: observability multiplies nothing, but
#: the CLI is for interactive looks, not calibration.
SIZES: dict[str, dict[str, int]] = {
    "dotprod": {"n": 8192},
    "jacobi": {"n": 64, "iters": 4},
    "tsp": {"ncities": 8},
    "pde3d": {"m": 14, "iters": 4},
}


def _run_observed(args: argparse.Namespace) -> RunResult:
    obs = ObsConfig(
        timeline_window_ns=int(args.window_ms * MILLISECOND),
        sample_every=args.sample_every,
        hist_backend=args.hist_backend,
    )
    config = (
        ClusterConfig(nodes=args.nodes, obs=obs)
        .with_svm(algorithm=args.algorithm)
        .with_fabric(backend=args.fabric)
    )
    if args.capacity:
        # The Figure 4 / Table 1 regime, sized for the PDE (main() refuses
        # --capacity with any other app).
        config = capacity_config(SIZES["pde3d"]["m"], config.svm.page_size, base=config)
    return Job(args.app, SIZES[args.app], nprocs=args.nodes, config=config).run()


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.metrics.report import format_instruments, format_profile

    res = _run_observed(args)
    obs, total = res.obs, res.time_ns
    print(
        f"{args.app} on {args.nodes} nodes ({args.algorithm}): "
        f"T = {total / 1e6:.1f} ms simulated, {len(obs.spans)} spans"
    )
    print()
    print(format_instruments(obs.metrics))
    print()
    print(format_profile(obs.breakdown(args.nodes, total), total))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    res = _run_observed(args)
    count = save_chrome_trace(args.out, res.obs, total_ns=res.time_ns)
    print(f"saved {count} trace events to {args.out} (open at ui.perfetto.dev)")
    if args.spans:
        n = res.obs.spans.save(args.spans)
        print(f"saved {n} spans to {args.spans}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.metrics.report import format_span_stats

    res = _run_observed(args)
    print(
        f"{args.app} on {args.nodes} nodes ({args.algorithm}): "
        f"T = {res.time_ns / 1e6:.1f} ms simulated"
    )
    print()
    print(format_span_stats(res.obs.span_stats(), limit=args.limit))
    return 0


def _validate(text: str) -> tuple[str, list[str], str]:
    """(format, problems, size) of an export, its format read from the
    content: a first record of kind ``meta`` is timeline JSONL, other
    JSON is a Chrome trace, anything else is OpenMetrics text."""
    first = text.lstrip().split("\n", 1)[0]
    try:
        head = json.loads(first)
    except json.JSONDecodeError:
        head = None
    if isinstance(head, dict) and head.get("kind") == "meta":
        lines = text.split("\n")
        nrecords = sum(1 for line in lines if line.strip())
        return "timeline JSONL", validate_timeline_jsonl(lines), f"{nrecords} records"
    if first[:1] in ("{", "["):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return "trace-event JSON", [f"not valid JSON: {exc}"], ""
        problems = validate_chrome_trace(doc)
        return "trace-event JSON", problems, "" if problems else f"{len(doc['traceEvents'])} events"
    nsamples = sum(1 for line in text.split("\n") if line and not line.startswith("#"))
    return "OpenMetrics exposition", validate_openmetrics(text), f"{nsamples} samples"


def _cmd_validate(args: argparse.Namespace) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise SystemExit(f"no such file: {args.file}")
    kind, problems, size = _validate(text)
    for problem in problems:
        print(f"{args.file}: {problem}")
    if problems:
        print(f"{len(problems)} problem(s) in {kind}")
        return 1
    print(f"{args.file}: valid {kind} ({size})")
    return 0


def _parse_specs(texts: list[str]) -> list[Any]:
    from repro.obs.slo import parse_slo

    try:
        return [parse_slo(text) for text in texts]
    except ValueError as exc:
        raise SystemExit(str(exc))


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.metrics.report import (
        format_busiest_links,
        format_slo_report,
        format_window_profile,
    )
    from repro.obs.slo import evaluate

    specs = _parse_specs(args.slo)
    res = _run_observed(args)
    obs, total = res.obs, res.time_ns
    tl = obs.timeline
    assert tl is not None  # main() refused a window under 1 ns
    print(
        f"{args.app} on {args.nodes} nodes ({args.algorithm}, {args.fabric}): "
        f"T = {total / 1e6:.1f} ms simulated, {tl.nwindows(total)} windows of "
        f"{tl.window_ns / 1e6:.0f} ms, {len(obs.spans)} spans recorded "
        f"({obs.spans.dropped} sampled out)"
    )
    print()
    print(
        format_window_profile(
            obs.window_breakdowns(args.nodes, total), tl.window_ns, total
        )
    )
    print()
    print(format_busiest_links(tl.busiest_links(total)))
    report = evaluate(tl, total, specs) if specs else None
    if report is not None:
        print()
        print(format_slo_report(report))
    if args.out:
        n = save_timeline_jsonl(args.out, obs, args.nodes, total)
        print(f"\nsaved {n} timeline records to {args.out}")
    if args.metrics_out:
        text = openmetrics(obs, args.nodes, total)
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"saved OpenMetrics exposition to {args.metrics_out}")
    return 1 if args.fail_on_violation and report is not None and not report.ok else 0


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", default="dotprod", choices=sorted(SIZES))
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument(
        "--algorithm", default="dynamic",
        help="centralized | fixed | dynamic | broadcast",
    )
    parser.add_argument(
        "--capacity", action="store_true",
        help="bound frames below pde3d's working set (the Figure 4 regime; "
        "--app pde3d only)",
    )
    parser.add_argument(
        "--fabric", default="ring", choices=tuple(FABRIC_BACKENDS),
        help="network backend (default ring)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=0.0,
        help="timeline window width in simulated ms (0 = no timeline)",
    )
    parser.add_argument(
        "--sample-every", type=int, default=1,
        help="keep ~1/N of span trees by a pure hash of the span id",
    )
    parser.add_argument(
        "--hist-backend", default="exact", choices=("exact", "logbucket"),
        help="histogram backend (logbucket = bounded memory)",
    )


def _check_run_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Usage errors (exit 2) no single flag can see on its own."""
    if args.capacity and args.app != "pde3d":
        parser.error(f"--capacity sizes frames for pde3d; it cannot run --app {args.app}")
    # 0 means no timeline (the default outside `timeline`); any other
    # window must be at least one simulated nanosecond.
    if (args.window_ms or args.command == "timeline") and args.window_ms * MILLISECOND < 1:
        parser.error(f"--window-ms must be at least 1e-06 (1 ns), not {args.window_ms:g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="span tracing, instruments and profiling for the SVM simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="run a benchmark and print the obs report")
    _add_run_args(report)
    report.set_defaults(func=_cmd_report)

    export = sub.add_parser("export", help="run a benchmark and export a Chrome trace")
    _add_run_args(export)
    export.add_argument("--out", default="trace.json", help="Chrome trace JSON path")
    export.add_argument("--spans", default="", help="also save raw spans (JSONL)")
    export.set_defaults(func=_cmd_export)

    top = sub.add_parser("top", help="aggregate spans by name, heaviest first")
    _add_run_args(top)
    top.add_argument("-n", "--limit", type=int, default=20)
    top.set_defaults(func=_cmd_top)

    validate = sub.add_parser(
        "validate", help="check a Chrome trace, timeline JSONL or OpenMetrics export"
    )
    validate.add_argument(
        "file", help="written by `export --out`, `timeline --out` or `--metrics-out`"
    )
    validate.set_defaults(func=_cmd_validate)

    timeline = sub.add_parser(
        "timeline", help="windowed profile, busiest links, SLOs, exports"
    )
    _add_run_args(timeline)
    timeline.set_defaults(window_ms=50.0)
    timeline.add_argument(
        "--slo", action="append", default=[],
        help='SLO spec, repeatable (e.g. "p99(fault.read_ns) < 60ms")',
    )
    timeline.add_argument("--out", default="", help="timeline JSONL path")
    timeline.add_argument(
        "--metrics-out", default="", help="OpenMetrics exposition path"
    )
    timeline.add_argument(
        "--fail-on-violation", action="store_true",
        help="exit 1 when any --slo is violated in any window",
    )
    timeline.set_defaults(func=_cmd_timeline)

    args = parser.parse_args(argv)
    if args.command != "validate":
        _check_run_args(parser, args)
    try:
        return args.func(args)
    except ConfigError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
