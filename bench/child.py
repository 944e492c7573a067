"""One pass of one workload, run in a fresh child process.

``wall_s`` is the sum of the timed calls only: ``ivy.run(app.main)`` per
simulation, ``run_default()`` and each ``explore_dfs`` on
``checker_stack``.  ``setup_s`` runs from the parent's timestamp taken
just before it started this process to the first timed call: interpreter
start, ``import repro.*``, input generation (app constructors), and
every ``Ivy(config)`` / ``build_matrix()``.  Result checks run after each
timed call, untimed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from typing import TYPE_CHECKING, Any

from bench.trace import Tracer

if TYPE_CHECKING:  # bench.workloads imports repro; run_pass times that import
    from bench.workloads import Plan, Shape, Sim, Sweep, Verifier

__all__ = ["run_pass", "execute", "set_up"]


def _digest(*parts: Any) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()[:16]


def set_up(the_plan: Plan, seed: int, tracer: Tracer) -> dict[str, Any]:
    """Generate every input and build every cluster; returns shared
    set-up products (the certified commutativity matrix, if needed)."""
    from repro.api.ivy import Ivy

    from bench.workloads import Sim, Sweep, build_app

    shared: dict[str, Any] = {}
    sims = [u for u in the_plan.units if isinstance(u, Sim)]
    with tracer.span("inputs"):
        for i, sim in enumerate(sims):
            with tracer.span(f"input:{sim.label}", sim=i):
                sim.app = build_app(sim, seed)
    with tracer.span("build"):
        for i, sim in enumerate(sims):
            with tracer.span(f"Ivy:{sim.label}", sim=i):
                sim.ivy = Ivy(sim.config)
        if any(isinstance(u, Sweep) for u in the_plan.units):
            from repro.analysis.static.commute import build_matrix

            with tracer.span("build_matrix"):
                shared["matrix"] = build_matrix()
    return shared


def _run_sim(sim: Sim, idx: int, tracer: Tracer) -> dict[str, Any]:
    ivy, app = sim.ivy, sim.app
    failures: list[str] = []
    result = None
    with tracer.span(f"run:{sim.label}", sim=idx), tracer.profiled("sim"):
        started = time.perf_counter()
        try:
            result = ivy.run(app.main)
        except Exception as exc:  # the op failed; report it, keep measuring
            failures.append(f"{sim.label}: run raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter() - started
    if not failures:
        with tracer.span(f"check:{sim.label}", sim=idx):
            try:
                app.check(result)
            except AssertionError as exc:
                failures.append(f"{sim.label}: {exc}")
            if ivy.races is not None and ivy.races.races:
                failures.append(f"{sim.label}: {len(ivy.races.races)} data race(s)")
    cluster = ivy.cluster
    counters = cluster.total_counters().snapshot()
    fabric = cluster.fabric.stats.snapshot()
    transport: dict[str, int] = {}
    for node in cluster.nodes:
        for key, value in node.transport.stats.snapshot().items():
            transport[key] = transport.get(key, 0) + value
    links = cluster.fabric.stats.links().values()
    record = {
        "label": sim.label,
        "program": sim.program,
        "nprocs": sim.nprocs,
        "role": sim.role,
        "wall_s": wall,
        "time_ns": ivy.time_ns,
        "events": cluster.sim.events_executed,
        "counters": counters,
        "fabric": fabric,
        "transport": transport,
        "busiest_link_ns": max((link.busy_ns for link in links), default=0),
        "pool": {
            "msg_allocated": cluster.fabric.pool.allocated,
            "msg_reused": cluster.fabric.pool.reused,
            "page_allocated": cluster.fabric.pages.allocated,
            "page_reused": cluster.fabric.pages.reused,
        },
        "obs_spans": len(ivy.obs.spans) if ivy.obs else 0,
        "config_digest": _digest(repr(sim.config)),
        "ops": 1,
        "failed": 1 if failures else 0,
        "failures": failures,
    }
    # What must repeat exactly across passes of one seed.
    record["fingerprint"] = _digest(
        record["time_ns"], record["events"], counters, fabric, transport,
        record["pool"], record["obs_spans"],
    )
    sim.ivy = sim.app = None  # release the cluster before the next run
    return record


def _run_sweep(sweep: Sweep, idx: int, tracer: Tracer, matrix: Any) -> dict[str, Any]:
    from repro.analysis import explore as ex

    relation = ex.certified_relation(sweep.scenario.algorithm, matrix)
    with tracer.span(f"explore_dfs:{sweep.label}", sim=idx), tracer.profiled("sweep"):
        started = time.perf_counter()
        result = ex.explore_dfs(sweep.scenario, max_schedules=50_000, relation=relation)
        wall = time.perf_counter() - started
    # One op per explored schedule, which must be oracle-clean, and one
    # for the sweep itself, which must be complete.
    failures = [
        f"{sweep.label}: schedule {list(ce.choices)} {ce.status} ({ce.rule})"
        for ce in result.violations
    ]
    failed = len(failures)
    incomplete = []
    if result.truncated:
        incomplete.append("truncated")
    if sweep.expect is not None and result.schedules != sweep.expect:
        incomplete.append(f"visited {result.schedules} schedules, expected {sweep.expect}")
    if incomplete:
        failed += 1
        failures.append(f"{sweep.label}: incomplete sweep ({', '.join(incomplete)})")
    states = sorted(result.fingerprints)
    return {
        "label": sweep.label,
        "wall_s": wall,
        "schedules": result.schedules,
        "config_digest": _digest(repr(sweep.scenario)),
        "ops": result.schedules + 1,
        "failed": failed,
        "failures": failures,
        "fingerprint": _digest(result.schedules, result.statuses, states),
    }


def _run_verifier(unit: Verifier, idx: int, tracer: Tracer) -> dict[str, Any]:
    from repro.analysis.static import run_default

    with tracer.span("static:run_default", sim=idx), tracer.profiled("verifier"):
        started = time.perf_counter()
        report = run_default()
        wall = time.perf_counter() - started
    lines = report.render_findings()
    return {
        "label": unit.label,
        "wall_s": wall,
        "findings": len(report.findings),
        "config_digest": _digest(unit.label),
        "ops": 1,
        "failed": 1 if report.findings else 0,
        "failures": [f"{unit.label}: {line}" for line in lines],
        "fingerprint": _digest(lines, report.render_summary()),
    }


def _check_shape(shape: Shape, sims: list[dict[str, Any]]) -> tuple[float | None, str | None]:
    """(ratio, failure) for one paper-shape check."""
    def run_of(p: int) -> dict[str, Any] | None:
        for rec in sims:
            if rec["program"] == shape.program and rec["nprocs"] == p and rec["role"] == "plain":
                return rec
        return None

    base, other = run_of(shape.base), run_of(shape.other)
    if base is None or other is None or base["failures"] or other["failures"]:
        return None, f"{shape.label}: runs missing or failed"
    if shape.what == "time":
        num, den = base["time_ns"], other["time_ns"]
    else:
        num, den = (
            rec["counters"].get("disk_reads", 0) + rec["counters"].get("disk_writes", 0)
            for rec in (base, other)
        )
    ratio = num / den if den else float("inf")
    if (shape.lo is not None and not ratio > shape.lo) or (
        shape.hi is not None and not ratio < shape.hi
    ):
        return ratio, f"{shape.label}: {ratio:.3f} outside ({shape.lo}, {shape.hi})"
    return ratio, None


def execute(the_plan: Plan, shared: dict[str, Any], tracer: Tracer) -> dict[str, Any]:
    """Run every unit of a set-up plan (timed), then its checks."""
    from bench.workloads import Sim, Sweep

    sims: list[dict[str, Any]] = []
    sweeps: list[dict[str, Any]] = []
    verifier: dict[str, Any] | None = None
    for idx, unit in enumerate(the_plan.units):
        if isinstance(unit, Sim):
            sims.append(_run_sim(unit, idx, tracer))
        elif isinstance(unit, Sweep):
            sweeps.append(_run_sweep(unit, idx, tracer, shared["matrix"]))
        else:
            verifier = _run_verifier(unit, idx, tracer)
    records = sims + sweeps + ([verifier] if verifier else [])
    attempted = sum(rec["ops"] for rec in records)
    failed = sum(rec["failed"] for rec in records)
    failures = [f for rec in records for f in rec["failures"]]
    shapes: dict[str, float | None] = {}
    for shape in the_plan.shapes:
        ratio, failure = _check_shape(shape, sims)
        shapes[shape.label] = ratio
        attempted += 1
        if failure:
            failed += 1
            failures.append(failure)
    return {
        "wall_s": sum(rec["wall_s"] for rec in records),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "sims": sims,
        "sweeps": sweeps,
        "verifier": verifier,
        "shapes": shapes,
        "fingerprint": _digest([rec["fingerprint"] for rec in records]),
        "config_digest": _digest([rec["config_digest"] for rec in records]),
    }


def run_pass(workload: str, seed: int, trace: bool, smoke: bool, t0: float) -> dict[str, Any]:
    """One complete pass; ``t0`` is the parent's ``time.time()`` taken
    just before it started this process."""
    tracer = Tracer(enabled=trace)
    with tracer.span("pass"):
        with tracer.span("import"):
            from repro.sim.kernel import make_simulator

            from bench.workloads import plan
        with tracer.span("setup"):
            the_plan = plan(workload, seed, smoke)
            shared = set_up(the_plan, seed, tracer)
        setup_s = time.time() - t0
        out = execute(the_plan, shared, tracer)
    out["workload"] = workload
    out["seed"] = seed
    out["setup_s"] = setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["kernel"] = type(make_simulator(None)).__name__
    if trace:
        origin = tracer.spans[0]["start"]
        for span in tracer.spans:
            span["start"] -= origin
            span["end"] -= origin
        out["spans"] = tracer.spans
        out["buckets"] = tracer.buckets()
        out["calls"] = tracer.calls
    return out
