"""Provenance, result files and the printed table."""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any

from bench import ROOT, SCHEMA
from bench.metrics import EXACT_END_TO_END, by_name, end_to_end, layer_of, per_layer

__all__ = ["provenance", "write_result", "print_workload", "print_layers", "contract_line"]


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """The checkout's commit (``-dirty`` when the tree differs from it),
    or None where it is not a git repository (the benchmark driver's
    checkout is not)."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict[str, Any]:
    """What produced the numbers; taken before the first pass starts."""
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "schema": SCHEMA,
        "seed": seed,
        "git_commit": _git_commit(),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "load1_at_start": load1,
        # Another busy process takes one of the cores the passes need.
        "noisy_host": load1 > nproc / 2,
    }


def write_result(out_dir: Path, name: str, doc: dict[str, Any]) -> Path:
    """Write ``doc`` (spans split into their own file) under ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = json.loads(json.dumps(doc))  # deep copy; the caller keeps its spans
    for workload, result in doc.get("workloads", {}).items():
        trace = result.pop("trace", None)
        if trace is not None:
            trace_path = out_dir / f"{name}.trace.{workload}.json"
            trace_path.write_text(json.dumps(trace, indent=1) + "\n", encoding="utf-8")
            result["trace_file"] = trace_path.name
    path = out_dir / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) >= 100 else f"{value:.4g}"


def print_workload(result: dict[str, Any]) -> None:
    """Every metric of one workload, by name, with its unit; the five
    end-to-end metrics first, then each per-layer metric with its layer."""
    name = result["workload"]
    values = result["per_layer"]
    print(f"\n== {name}  seed={result['seed']}  passes={result['passes']}  "
          f"kernel={result['kernel']}  config={result['config_digest']}  "
          f"fingerprint={result['fingerprint']}")
    for metric in end_to_end():
        s = result["end_to_end"][metric.name]
        how = "each unit's fastest timing, summed; pass totals: " if "per_unit" in s else ""
        print(f"  {metric.name:36s} {s['value']:.4f} {metric.unit}  "
              f"[{how}median {s['median']:.4f}, q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, "
              f"n={s['n']}; n<11, so no percentile is reported]")
    registry = by_name()
    notes = {"sim_time_ms": "exact",
             "fail_share": f"exact; {result['failed']} failed of {result['attempted']} ops"}
    for metric_name in EXACT_END_TO_END:
        print(f"  {metric_name:36s} {_fmt(values[metric_name])} {registry[metric_name].unit}  "
              f"[{notes[metric_name]}]")
    for failure in result["failures"][:10]:
        print(f"    FAILED {failure}")
    for metric in per_layer():
        if metric.name in values and metric.name not in EXACT_END_TO_END:
            print(f"  {metric.name:36s} {_fmt(values[metric.name])} {metric.unit}  "
                  f"[{layer_of(metric.name)}]")


def print_layers(layers: dict[str, float]) -> None:
    print("\n== layer drivers (median per operation)")
    registry = by_name()
    for name, value in layers.items():
        print(f"  {name:36s} {value:.4g} {registry[name].unit}  [{layer_of(name)}]")


def contract_line(result: dict[str, Any], layers: dict[str, float] | None) -> str:
    """The one-line JSON object the benchmark driver reads: end-to-end
    metrics for an untraced run, every per-layer metric for a traced one."""
    if layers is None:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in end_to_end()
        }
    else:
        values = {**result["per_layer"], **layers}
        metrics = {m.name: {"value": values[m.name], "unit": m.unit} for m in per_layer()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })
