"""The parent side: start passes one after another, fold them into a result.

One pass is one fresh ``python -m bench --child`` process; passes run
strictly in sequence (the simulator is single-threaded and the host has
two cores, so a pool would measure the scheduler).  End-to-end numbers
come only from untraced passes; the traced pass contributes the
attribution metrics and its wall gives ``trace.overhead_x``.

``wall_s`` is the sum, over the workload's timed units (one simulation,
one sweep, the verifier call), of the *fastest* of that unit's timings
across the passes.  The host is a shared VM whose neighbours only ever
add time, in bursts of seconds: on one commit the median of three pass
totals spread 28% over ten runs on the benchmark driver's machine, and
under synthetic bursts here 14.6% where this statistic spread 4.5%
(``README.md``, *Bounds and this host*).  The median and quartiles of
the pass totals are still recorded and printed beside it.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from bench import ROOT
from bench.metrics import counts_of, end_to_end
from bench.trace import GROUPS

__all__ = ["BenchError", "spawn_pass", "measure", "summary"]

#: A timed (``seconds``) measurement never reports a median of fewer.
MIN_PASSES = 3

#: A pass that has not finished by then is hung (the slowest takes ~20 s traced).
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """A pass could not be run at all (as opposed to a failed op)."""


def spawn_pass(workload: str, seed: int, trace: bool = False, smoke: bool = False) -> dict[str, Any]:
    """Run one pass in a fresh child process and return its record."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)  # measure the default kernel path
    # The static verifier iterates sets of strings: its results do not
    # depend on their order, its call count does.  Pinned, the calls
    # proxies repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, "-m", "bench", "--child", workload, "--seed", str(seed)]
    if trace:
        cmd += ["--trace", "1"]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.time())]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise BenchError(f"pass {workload!r} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict[str, Any]:
    """Median and quartiles of ``values``, one per pass (no percentile:
    with n passes below eleven none has ten samples beyond it).  The
    quartiles are those of the passes themselves (the inclusive method):
    of five passes they are the second and the fourth, so one disturbed
    pass does not widen the spread.  ``value`` is the number reported
    and compared, ``spread`` what ``--compare`` holds against the bound."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    median = statistics.median(values)
    return {"value": median, "spread": q3 - q1, "median": median, "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _unit_walls(record: dict[str, Any]) -> dict[str, float]:
    units = record["sims"] + record["sweeps"] + ([record["verifier"]] if record["verifier"] else [])
    return {unit["label"]: unit["wall_s"] for unit in units}


def _fastest_per_unit(passes: list[dict[str, float]]) -> dict[str, float]:
    return {label: min(walls[label] for walls in passes) for label in passes[0]}


def wall_summary(records: list[dict[str, Any]]) -> dict[str, Any]:
    """``wall_s``: each unit's fastest timing, summed.  Its spread is the
    most that leaving any one pass out would raise it."""
    out = summary([rec["wall_s"] for rec in records])
    passes = [_unit_walls(rec) for rec in records]
    out["per_unit"] = _fastest_per_unit(passes)
    out["value"] = sum(out["per_unit"].values())
    without_one = [
        sum(_fastest_per_unit(passes[:i] + passes[i + 1:]).values())
        for i in range(len(passes) if len(passes) > 1 else 0)
    ]
    out["spread"] = max(without_one, default=out["value"]) - out["value"]
    return out


def _trace_metrics(traced: dict[str, Any], untraced_wall: float) -> dict[str, float]:
    buckets = traced["buckets"]
    events = sum(rec["events"] for rec in traced["sims"])
    schedules = sum(rec["schedules"] for rec in traced["sweeps"])
    out: dict[str, float] = {}
    for group in GROUPS:
        out[f"self_share.{group}"] = buckets[group]["share"]
        out[f"calls_per_event.{group}"] = buckets[group]["calls"] / events if events else 0.0
    # The sweeps' own calls: the verifier's are profiled too, not counted here.
    sweep_calls = traced["calls"].get("sweep", 0)
    out["analysis.explore.calls_per_schedule"] = sweep_calls / schedules if schedules else 0.0
    out["trace.overhead_x"] = traced["wall_s"] / untraced_wall
    return out


def measure(
    workload: str,
    seed: int,
    passes: int | None = None,
    seconds: float | None = None,
    trace: bool = False,
    smoke: bool = False,
) -> dict[str, Any]:
    """Measure one workload.

    Untraced passes repeat ``passes`` times, or — when ``seconds`` is
    given instead — the number of times that comes nearest to that much
    time, and at least ``MIN_PASSES`` times.  ``trace`` adds one traced pass
    afterwards.
    """
    records: list[dict[str, Any]] = []
    durations: list[float] = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        records.append(spawn_pass(workload, seed, smoke=smoke))
        now = time.perf_counter()
        durations.append(now - pass_started)
        if passes is not None:
            if len(records) >= passes:
                break
        elif len(records) >= MIN_PASSES and (
            now - started + statistics.median(durations) / 2 > seconds
        ):
            break
    traced = spawn_pass(workload, seed, trace=True, smoke=smoke) if trace else None

    timed = {m.name: summary([rec[m.name] for rec in records]) for m in end_to_end()}
    timed["wall_s"] = wall_summary(records)
    per_pass = [counts_of(rec) for rec in records]
    per_layer = {
        name: statistics.median(counts[name] for counts in per_pass) for name in per_pass[0]
    }
    if traced is not None:
        per_layer.update(_trace_metrics(traced, timed["wall_s"]["value"]))

    # Ops: every pass's own checks, plus one determinism check per run.
    attempted = sum(rec["attempted"] for rec in records) + 1
    failed = sum(rec["failed"] for rec in records)
    failures = [f"pass {i}: {f}" for i, rec in enumerate(records) for f in rec["failures"]]
    every = records + ([traced] if traced else [])
    fingerprints = {rec["fingerprint"] for rec in every}
    if len(fingerprints) > 1:
        failed += 1
        failures.append(f"determinism: {len(fingerprints)} fingerprints over {len(every)} passes")
    per_layer["fail_share"] = failed / attempted
    first = records[0]
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(records),
        "end_to_end": timed,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "fingerprint": first["fingerprint"],
        "config_digest": first["config_digest"],
        "kernel": first["kernel"],
        "shapes": first["shapes"],
    }
    if traced is not None:
        result["trace"] = {
            "wall_s": traced["wall_s"],
            "spans": traced["spans"],
            "buckets": traced["buckets"],
        }
    return result
