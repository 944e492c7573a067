"""Every metric the benchmark prints, read from ``BENCHMARK.json``.

The manifest is the one list of names, units, directions and bounds;
nothing here repeats it.  What the manifest's fixed keys cannot say is
derived from what they do say:

- a metric is *exact* — a deterministic simulator must reproduce it bit
  for bit, and ``--compare`` tests it for equality — when its unit is not
  a host-time unit.  Host time and simulated time never share a unit:
  ``s``/``ms``/``us``/``ns``/``1/s``/``x``/``share``/``MiB`` come from the
  host's clock or allocator, ``sim_ms``/``sim_us``/``count``/``bytes``/
  ``ratio``/``calls/...`` from the model or from counting;
- a per-layer metric's *layer* is in its name (:func:`layer_of`).

``sim_time_ms`` and ``fail_share`` are end-to-end metrics of this
benchmark (printed and compared as such).  The manifest lists them under
``per_layer`` because its ``end_to_end`` section only admits metrics that
are never 0 and vary from run to run: ``fail_share`` is 0 on every
healthy run and ``sim_time_ms`` repeats exactly.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Any

from bench import ROOT
from bench.trace import GROUPS

__all__ = ["Metric", "EXACT_END_TO_END", "manifest", "end_to_end", "per_layer", "by_name",
           "layer_of", "counts_of"]

_EXACT_UNITS = frozenset({"count", "bytes", "ratio", "sim_ms", "sim_us", "calls/event",
                          "calls/sched"})

#: End-to-end metrics the manifest has to carry under ``per_layer``.
EXACT_END_TO_END = ("sim_time_ms", "fail_share")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen (None for per-layer metrics, which have no bound).
    bound: float | None = None

    @property
    def exact(self) -> bool:
        return self.unit in _EXACT_UNITS


@functools.cache
def manifest() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@functools.cache
def end_to_end() -> tuple[Metric, ...]:
    return tuple(Metric(**entry) for entry in manifest()["end_to_end"])


@functools.cache
def per_layer() -> tuple[Metric, ...]:
    return tuple(Metric(**entry) for entry in manifest()["per_layer"])


@functools.cache
def by_name() -> dict[str, Metric]:
    return {m.name: m for m in (*end_to_end(), *per_layer())}


def layer_of(name: str) -> str:
    """The layer a per-layer metric belongs to: one of ``trace.GROUPS``,
    ``bench`` (the harness itself) or ``end-to-end``."""
    if name in EXACT_END_TO_END:
        return "end-to-end"
    for prefix in ("self_share.", "calls_per_event."):
        if name.startswith(prefix):
            return name[len(prefix):]
    if name.startswith("net.pool."):
        return "net.msg"  # pool.py
    if name.startswith("trace."):
        return "bench"
    return max((g for g in GROUPS if name.startswith(g + ".")), key=len)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counts_of(record: dict[str, Any]) -> dict[str, float]:
    """The metrics read after one untraced pass (``child.run_pass``
    output).  A metric that does not apply to the workload reads 0."""
    sims = record["sims"]
    sweeps = record["sweeps"]
    verifier = record["verifier"]

    def total(section: str, key: str) -> int:
        return sum(rec[section].get(key, 0) for rec in sims)

    def wall(role: str, programs: set[str] | None = None) -> float:
        return sum(
            rec["wall_s"] for rec in sims
            if rec["role"] == role and (programs is None or rec["program"] in programs)
        )

    events = sum(rec["events"] for rec in sims)
    time_ns = sum(rec["time_ns"] for rec in sims)
    faults = total("counters", "read_faults") + total("counters", "write_faults")
    fault_ns = total("counters", "read_fault_ns") + total("counters", "write_fault_ns")
    requests = total("transport", "requests_sent")
    msg_all = total("pool", "msg_allocated") + total("pool", "msg_reused")
    page_all = total("pool", "page_allocated") + total("pool", "page_reused")
    schedules = sum(rec["schedules"] for rec in sweeps)
    out: dict[str, float] = {
        "sim_time_ms": time_ns / 1e6,
        "sim.events": events,
        "sim.events_per_s": _ratio(events, sum(rec["wall_s"] for rec in sims)),
        "net.fabric.messages": total("fabric", "messages"),
        "net.fabric.broadcasts": total("fabric", "broadcasts"),
        "net.fabric.bytes": total("fabric", "bytes_sent"),
        "net.fabric.busy_share": _ratio(sum(rec["busiest_link_ns"] for rec in sims), time_ns),
        "net.transport.requests": requests,
        "net.transport.retransmits": total("transport", "retransmits"),
        "net.transport.duplicates_dropped": total("transport", "duplicates_dropped"),
        "net.transport.replies_resent": total("transport", "replies_resent"),
        "net.transport.retransmit_ratio": _ratio(total("transport", "retransmits"), requests),
        "net.pool.msg_hit_ratio": _ratio(total("pool", "msg_reused"), msg_all),
        "net.pool.page_hit_ratio": _ratio(total("pool", "page_reused"), page_all),
        "svm.read_faults": total("counters", "read_faults"),
        "svm.write_faults": total("counters", "write_faults"),
        "svm.invalidations": total("counters", "invalidations_sent"),
        "svm.forwards_per_fault": _ratio(total("counters", "faults_forwarded"), faults),
        "svm.fault_sim_us": _ratio(fault_ns, faults) / 1e3,
        "machine.disk_transfers": total("counters", "disk_reads") + total("counters", "disk_writes"),
        "machine.evictions": total("counters", "evictions"),
        "analysis.explore.schedules": schedules,
        "analysis.explore.schedules_per_s": _ratio(schedules, sum(rec["wall_s"] for rec in sweeps)),
        "analysis.static.findings": verifier["findings"] if verifier else 0,
        "analysis.static.wall_s": verifier["wall_s"] if verifier else 0.0,
        "obs.spans": sum(rec["obs_spans"] for rec in sims),
    }
    plain = [rec for rec in sims if rec["role"] == "plain"]
    for name in by_name():
        prefix, _, program = name.rpartition(".")
        if prefix != "apps.speedup":
            continue
        runs = sorted((rec["nprocs"], rec["time_ns"]) for rec in plain if rec["program"] == program)
        speedup = 0.0
        if len(runs) > 1 and runs[0][0] == 1:
            speedup = runs[0][1] / runs[-1][1]
        out[name] = speedup
    # Hook on-cost against the same programs' plain runs in this pass.
    for role, wall_name, ratio_name in (
        ("checked", "analysis.checked_wall_s", "analysis.checker_overhead_x"),
        ("observed", "obs.observed_wall_s", "obs.overhead_x"),
    ):
        programs = {rec["program"] for rec in sims if rec["role"] == role}
        out[wall_name] = wall(role)
        out[ratio_name] = _ratio(wall(role), wall("plain", programs))
    return out
