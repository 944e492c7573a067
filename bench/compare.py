"""``python -m bench --compare A.json B.json``: is B worse than A?

One row per (end-to-end metric, workload), with each side's reported
value and its spread (``runner.summary``, ``runner.wall_summary``).  A is
the base of every ratio.  Verdicts:

- ``worse``      B's value is worse than A's by more than the bound;
- ``better``     B's value is better than A's by more than the bound;
- ``unresolved`` either side's spread is wider than the bound, so a
                 change of the bound's size cannot be seen — unless every
                 pass of B beats every pass of A, which is ``better``;
- ``same``       otherwise: no difference this screen can resolve.

This is a regression screen.  A *gain* is claimed by the interleaved
ten-pair procedure in the choosing-metrics guide, not from this table.

Exact metrics are compared for equality; any difference is ``worse`` or
``better`` by the metric's direction, with bound 0.  ``sim_time_ms`` and
``fail_share`` get their own rows; the exact counts and calls proxies are
summed up in one line per workload, and listed when they differ.
"""

from __future__ import annotations

import json
from typing import Any

from bench.metrics import EXACT_END_TO_END, by_name, end_to_end

__all__ = ["compare", "main"]

#: ``setup_s`` is tens of milliseconds of imports on most workloads; a
#: relative bound alone would flag scheduler noise.
SETUP_FLOOR_S = 0.05


def _verdict(a: dict[str, Any], b: dict[str, Any], bound: float, lower_is_better: bool,
             floor: float = 0.0) -> str:
    sign = 1.0 if lower_is_better else -1.0
    allowed = max(bound * a["value"], floor)
    b_beats_a = all(sign * vb < sign * va for vb in b["values"] for va in a["values"])
    if max(a["spread"], b["spread"]) > allowed:
        return "better" if b_beats_a else "unresolved"
    delta = sign * (b["value"] - a["value"])  # > 0: B is worse
    if delta > allowed:
        return "worse"
    return "better" if -delta > allowed else "same"


def _exact_verdict(va: float, vb: float, better: str) -> str:
    if va == vb:
        return "same"
    return "worse" if (vb > va) == (better == "lower") else "better"


def compare(a: dict[str, Any], b: dict[str, Any]) -> tuple[list[str], bool]:
    """(report lines, any row worse)."""
    lines = [
        f"A: commit {a['provenance']['git_commit']} seed {a['provenance']['seed']}"
        f"{'  NOISY HOST' if a['provenance']['noisy_host'] else ''}",
        f"B: commit {b['provenance']['git_commit']} seed {b['provenance']['seed']}"
        f"{'  NOISY HOST' if b['provenance']['noisy_host'] else ''}",
        "",
        f"{'workload':22s} {'metric':12s} {'A value (spread)':>22s} {'B value (spread)':>22s}"
        f" {'B/A':>7s}  verdict",
    ]
    worse = False
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            lines.append(f"{workload:22s} missing from B")
            worse = True
            continue
        ra, rb = a["workloads"][workload], b["workloads"][workload]
        if ra["config_digest"] != rb["config_digest"]:
            lines.append(f"{workload:22s} config digest changed: "
                         f"{ra['config_digest']} -> {rb['config_digest']}")
        for metric in end_to_end():
            sa, sb = ra["end_to_end"][metric.name], rb["end_to_end"][metric.name]
            verdict = _verdict(
                sa, sb, metric.bound or 0.0, metric.better == "lower",
                floor=SETUP_FLOOR_S if metric.name == "setup_s" else 0.0,
            )
            worse |= verdict == "worse"
            lines.append(
                f"{workload:22s} {metric.name:12s} "
                f"{sa['value']:12.4f} ({sa['spread']:.4f}) "
                f"{sb['value']:12.4f} ({sb['spread']:.4f}) "
                f"{sb['value'] / sa['value']:7.3f}  {verdict}"
            )
        registry = by_name()
        exact = {
            name: (va, rb["per_layer"][name]) for name, va in ra["per_layer"].items()
            if registry[name].exact and name in rb["per_layer"]
        }
        for name in EXACT_END_TO_END:
            va, vb = exact.pop(name)
            verdict = _exact_verdict(va, vb, registry[name].better)
            worse |= verdict == "worse"
            lines.append(f"{workload:22s} {name:12s} {va!r:>22} {vb!r:>22} {'exact':>7s}  {verdict}")
        differing = {name: pair for name, pair in exact.items() if pair[0] != pair[1]}
        lines.append(f"{workload:22s} exact per-layer metrics: {len(exact) - len(differing)} of "
                     f"{len(exact)} equal")
        for name, (va, vb) in differing.items():
            verdict = _exact_verdict(va, vb, registry[name].better)
            worse |= verdict == "worse"
            lines.append(f"{workload:22s}   {name}: {va!r} -> {vb!r}  {verdict}")
    return lines, worse


def main(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        lines, worse = compare(json.load(fa), json.load(fb))
    print("\n".join(lines))
    return 1 if worse else 0
