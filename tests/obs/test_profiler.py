"""Profiler unit tests: the partition invariant (each node's breakdown
sums to T exactly), overlap precedence, and interval hygiene."""

import json
from pathlib import Path

import pytest

from repro.obs import CATEGORIES, PRECEDENCE, Observability
from repro.obs.profiler import SimProfiler


def test_breakdown_partitions_the_timeline_exactly():
    prof = SimProfiler()
    prof.interval(0, "compute", 10, 40)
    prof.interval(0, "fault", 35, 60)  # overlaps compute
    prof.interval(0, "disk", 50, 55)  # overlaps fault
    out = prof.breakdown(0, 100)
    assert sum(out.values()) == 100
    assert set(out) == set(CATEGORIES)
    # [0,10) idle, [10,40) compute, [40,50) fault, [50,55) disk, [55,60) fault
    assert out == {"compute": 30, "fault": 15, "disk": 5, "network": 0, "idle": 50}


def test_precedence_order_resolves_full_overlap():
    for winner_index, winner in enumerate(PRECEDENCE):
        prof = SimProfiler()
        for cat in PRECEDENCE[winner_index:]:
            prof.interval(0, cat, 0, 10)
        assert prof.breakdown(0, 10)[winner] == 10


def test_intervals_clamp_to_the_run_window():
    prof = SimProfiler()
    prof.interval(0, "compute", 90, 250)  # runs past T
    out = prof.breakdown(0, 100)
    assert out["compute"] == 10 and out["idle"] == 90
    assert sum(out.values()) == 100


def test_degenerate_intervals_are_dropped():
    prof = SimProfiler()
    prof.interval(0, "compute", 5, 5)  # empty
    prof.interval(0, "compute", 9, 4)  # inverted
    prof.interval(0, "compute", -3, 7)  # pre-boot
    assert prof.breakdown(0, 10) == {
        "compute": 0, "fault": 0, "network": 0, "disk": 0, "idle": 10,
    }


def test_unknown_categories_fall_through_to_idle():
    prof = SimProfiler()
    prof.interval(0, "mystery", 0, 10)
    out = prof.breakdown(0, 10)
    assert out["idle"] == 10 and sum(out.values()) == 10


def test_zero_length_run_reports_all_zero():
    prof = SimProfiler()
    prof.interval(0, "compute", 0, 10)
    assert sum(prof.breakdown(0, 0).values()) == 0


def test_per_node_and_cluster_sums():
    prof = SimProfiler()
    prof.interval(0, "compute", 0, 60)
    prof.interval(1, "fault", 0, 25)
    per_node = prof.per_node(2, 100)
    assert all(sum(counts.values()) == 100 for counts in per_node.values())
    cluster = SimProfiler.cluster(per_node.values())
    assert sum(cluster.values()) == 200
    assert cluster["compute"] == 60 and cluster["fault"] == 25


def test_observability_profile_includes_categorised_spans():
    obs = Observability()
    now = [0]
    obs.bind_clock(lambda: now[0])
    # A fault span and a serve span feed the profiler; rpc spans do not.
    fault = obs.span_begin("fault.read", node=0)
    rpc = obs.span_begin("rpc:svm.read", parent=fault, node=0)
    serve = obs.span_begin("serve:svm.read", parent=rpc, node=1)
    now[0] = 30
    obs.span_end(serve)
    obs.span_end(rpc)
    now[0] = 40
    obs.span_end(fault)
    obs.interval(0, "compute", 0, 10)
    per_node = obs.breakdown(2, 50)
    assert sum(per_node[0].values()) == 50
    assert sum(per_node[1].values()) == 50
    # compute beats the overlapping fault on node 0; the rest is stall.
    assert per_node[0]["compute"] == 10 and per_node[0]["fault"] == 30
    assert per_node[1]["network"] == 30  # the serve span
    # The rpc span contributed nothing of its own (structure-only).
    assert per_node[0]["network"] == 0


def test_open_spans_clamp_to_end_of_run():
    obs = Observability()
    now = [0]
    obs.bind_clock(lambda: now[0])
    now[0] = 20
    obs.span_begin("disk.write", node=0)  # never closed
    out = obs.breakdown(1, 50)[0]
    assert out["disk"] == 30 and sum(out.values()) == 50


@pytest.mark.parametrize(
    "case", ["dotprod_p1", "dotprod_p2", "pde_capacity_p1", "pde_capacity_p2"]
)
def test_whole_run_breakdown_is_the_sum_of_its_windows(case):
    # One line sweep serves both shapes: the whole-run breakdown is its
    # one-window case, so any window width must sum back to it — and to
    # the cluster profile BENCH_obs.json committed for the same run.
    from repro.exps.bench import _bench_cases

    job = dict(_bench_cases())[case]
    res = job.run()
    per_node = res.obs.breakdown(job.nprocs, res.time_ns)
    for window_ns in (1_000_000, 7_777_777):
        windows = res.obs._profile(res.time_ns).per_node_windows(
            job.nprocs, res.time_ns, window_ns
        )
        assert {node: SimProfiler.cluster(w) for node, w in windows.items()} == per_node
    committed = json.loads((Path(__file__).parents[2] / "BENCH_obs.json").read_text())
    assert SimProfiler.cluster(per_node.values()) == committed["runs"][case]["profile_ns"]
