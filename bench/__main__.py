"""``python -m bench``: the one command.

::

    python -m bench                      # all workloads, 5 passes each, traced pass, layer drivers
    python -m bench --layers             # the layer drivers alone
    python -m bench --smoke              # scaled-down sizes, 2 passes, < 20 s
    python -m bench --compare A.json B.json
    python -m bench --workload W --seed N --seconds S --trace 0|1   # the benchmark driver's form

The last form prints, as its final line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from bench import ROOT

DEFAULT_SEED = 1988

#: Untraced passes per workload of ``python -m bench``.
PASSES = 5


def _workload_names() -> list[str]:
    from bench.metrics import manifest

    return [w["name"] for w in manifest()["workloads"]]


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="python -m bench", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out-dir", type=Path, default=ROOT / "bench" / "out",
                    help="result, span and bucket files go here (default bench/out/)")
    ap.add_argument("--layers", action="store_true", help="run only the layer drivers")
    ap.add_argument("--smoke", action="store_true", help="scaled-down sizes, 2 passes")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    # The benchmark driver's contract.
    ap.add_argument("--workload", help="measure this one workload and print the result line")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="with --workload: how long to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="with --workload: 0 = end-to-end metrics, 1 = per-layer metrics")
    # Internal: one pass in this process.
    ap.add_argument("--child", help=argparse.SUPPRESS)
    ap.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return ap


def _contract(args: argparse.Namespace) -> int:
    from bench import report, runner

    started = time.perf_counter()
    prov = report.provenance(args.seed)
    if args.trace:
        # One untraced pass (the base of trace.overhead_x and the source
        # of the counts), the traced pass (2.4-3.3x an untraced one),
        # then the layer drivers in what is left of the run's length.
        from bench.layers import run_layers

        result = runner.measure(args.workload, args.seed, passes=1, trace=True)
        layers = run_layers(budget_s=args.seconds / 2)
    else:
        result = runner.measure(args.workload, args.seed, seconds=args.seconds)
        layers = None
    doc = {"provenance": prov, "workloads": {args.workload: result}, "layers": layers,
           "elapsed_s": time.perf_counter() - started}
    report.write_result(args.out_dir, f"run-{args.workload}-s{args.seed}-t{args.trace}", doc)
    report.print_workload({**result, "per_layer": {**result["per_layer"], **(layers or {})}})
    print(report.contract_line(result, layers))
    return 0


def _full(args: argparse.Namespace) -> int:
    from bench import report, runner
    from bench.layers import run_layers

    started = time.perf_counter()
    prov = report.provenance(args.seed)
    if prov["noisy_host"]:
        print(f"warning: load average {prov['load1_at_start']:.2f} on {prov['nproc']} cores; "
              "timings will be noisy", file=sys.stderr)
    names = [] if args.layers else _workload_names()
    doc: dict = {"provenance": prov, "smoke": args.smoke, "workloads": {}, "layers": None}
    for name in names:
        result = runner.measure(name, args.seed, passes=2 if args.smoke else PASSES,
                                trace=True, smoke=args.smoke)
        doc["workloads"][name] = result
        report.print_workload(result)
    doc["layers"] = run_layers(budget_s=1.5) if args.smoke else run_layers()
    report.print_layers(doc["layers"])
    doc["elapsed_s"] = time.perf_counter() - started
    stem = "smoke" if args.smoke else "layers" if args.layers else "bench"
    path = report.write_result(args.out_dir, f"{stem}-s{args.seed}", doc)
    failed = sum(r["failed"] for r in doc["workloads"].values())
    print(f"\n{len(names)} workload(s), {failed} failed op(s), "
          f"{doc['elapsed_s']:.1f} s; result file {path}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        from bench import compare

        return compare.main(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no simulator to measure: {ROOT / 'src' / 'repro'} does not exist",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.child:
        from bench.child import run_pass

        record = run_pass(args.child, args.seed, bool(args.trace), args.smoke,
                          args.t0 if args.t0 is not None else time.time())
        print(json.dumps(record))
        return 0
    if args.workload and args.workload not in _workload_names():
        print(f"unknown workload {args.workload!r}; known: {', '.join(_workload_names())}",
              file=sys.stderr)
        return 2
    return _contract(args) if args.workload else _full(args)


if __name__ == "__main__":
    sys.exit(main())
