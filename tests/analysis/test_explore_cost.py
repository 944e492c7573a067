"""What one explored schedule costs, and what the CI sweeps reach.

A schedule is 40-62 simulator events, so anything paid per schedule that
is not one of those events is overhead an exhaustive sweep multiplies by
thousands.  These are deterministic gates on that overhead — garbage
left to the cycle collector, collector runs, calls per schedule — next
to the exact record of what the sweeps deliver: events per sweep and
which protocol ops each workload reaches.
"""

from __future__ import annotations

import copy
import gc
import json
import sys
from pathlib import Path

import pytest

from repro.analysis import explore as ex
from repro.analysis import explorebench as eb
from repro.analysis.explore import Scenario, run_scenario
from repro.net.remoteop import RemoteOp
from repro.svm.protocol import _protocol_classes

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_explore.json"

FOUR_NODES = Scenario("dynamic", 4, 1, "rw")
HINT_SWEEP = Scenario("dynamic", 3, 1, "chown", hint_period=1)


@pytest.fixture
def collector_off():
    """Automatic collection off, and nothing pending, for one test."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


# ----------------------------------------------------------------------
# (a) a closed cluster is freed by reference counting


def test_clean_run_leaves_nothing_for_the_cycle_collector(collector_off):
    """``run_scenario`` closes its cluster, which cuts every callback
    registry (each one a reference cycle through the node stack): with
    the collector off, a clean run leaves it not one object to find."""
    run_scenario(FOUR_NODES)  # per-process caches (config, op tables)
    gc.collect()
    result = run_scenario(FOUR_NODES)
    assert result.status == "ok" and result.fingerprint is not None
    assert gc.collect() == 0


@pytest.mark.parametrize(
    "scenario",
    [FOUR_NODES, Scenario("dynamic", 3, 1, "mutate-upgrade", mutation="ghost-copyset")],
    ids=["budget", "violation"],
)
def test_stopped_run_finalises_its_suspended_generators_quietly(
    scenario, monkeypatch
):
    """A run stopped by its budget (at every possible event count) or by
    a violation leaves generators suspended inside ``try/finally``;
    ``close()`` empties registries and queues but unsets nothing those
    ``finally`` blocks read, so collecting them raises nothing."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    full = run_scenario(scenario)
    statuses = {full.status}
    for budget in range(1, full.events):
        statuses.add(run_scenario(scenario, max_events=budget).status)
    gc.collect()
    assert statuses == {"budget", full.status}
    assert [str(u.exc_value) for u in unraisable] == []


def test_close_does_not_alter_what_a_violating_run_reports():
    """The result is taken before the cluster is closed: same rule, same
    detail, same choice log as a replay of the recorded choices."""
    scenario = Scenario("dynamic", 3, 1, "mutate-upgrade", mutation="lost-copyset")
    first = run_scenario(scenario, choices=(1,))
    again = run_scenario(scenario, choices=first.choices)
    assert first.status == "violation" and first.fingerprint is None
    assert (first.rule, first.detail, first.log, first.events, first.time) == (
        again.rule, again.detail, again.log, again.events, again.time
    )


# ----------------------------------------------------------------------
# (b) per-schedule overhead of a sweep, on deterministic proxies


def test_hint_sweep_overhead_per_schedule(collector_off):
    """The 768-schedule hint sweep, with the collector *on*: at most 20
    collections (204 when every dropped cluster was cyclic garbage; 6
    now) and at most 1,900 profiled calls per schedule, C calls included
    (1,996 with a per-schedule config build, a root ``SeedSequence`` and
    a drain / re-push of every tick; 1,888 before the loop was shared
    with the forked workers, 1,875 now).  ``jobs=1``: the sweep runs in
    this process, where the profile and the collector hooks are.  With
    more jobs most schedules run in workers no in-process hook sees —
    which is also why ``bench``'s traced ``calls_per_schedule`` now
    counts the coordinating process alone, and why this gate, not that
    number, is the deterministic per-schedule cost."""
    relation = ex.certified_relation(HINT_SWEEP.algorithm)
    ex.explore_dfs(HINT_SWEEP, max_schedules=4, relation=relation, jobs=1)  # caches
    collections = calls = 0

    def on_gc(phase, info):
        nonlocal collections
        collections += phase == "start"

    def on_call(frame, event, arg):
        nonlocal calls
        calls += event == "call" or event == "c_call"

    gc.callbacks.append(on_gc)
    gc.enable()
    sys.setprofile(on_call)
    try:
        result = ex.explore_dfs(HINT_SWEEP, relation=relation, jobs=1)
    finally:
        sys.setprofile(None)
        gc.disable()
        gc.callbacks.remove(on_gc)
    assert result.clean and result.schedules == 768
    assert collections <= 20
    assert calls / result.schedules <= 1900


# ----------------------------------------------------------------------
# events per sweep, and (e) the ops each workload's sweeps deliver


@pytest.fixture(scope="session")
def ci_sweeps() -> dict[str, tuple[ex.ExplorationResult, frozenset[str]]]:
    """Every CI sweep once, in this process, with the ops it delivered
    (handed to a server) over all its schedules — and the same for the
    ``mutate-upgrade`` workload, under that name."""
    delivered: set[str] = set()
    dispatch = RemoteOp._dispatch

    def spy(self, msg):
        delivered.add(msg.op)
        dispatch(self, msg)

    scenarios = {eb._key(s): s for s in eb.SWEEPS}
    scenarios["mutate-upgrade"] = Scenario("dynamic", 3, 1, "mutate-upgrade")
    swept = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RemoteOp, "_dispatch", spy)
        for key, scenario in scenarios.items():
            delivered.clear()
            result = ex.explore_dfs(scenario, max_schedules=50_000, jobs=1)
            swept[key] = result, frozenset(delivered)
    return swept


def test_exploration_result_sums_the_events_of_its_runs(ci_sweeps):
    default = run_scenario(Scenario("centralized", 3, 1, "mixed"))
    result, _ = ci_sweeps["centralized-n3-p1-mixed"]
    assert result.schedules == 24
    assert result.events == 720 > default.events * 23  # runs differ in length


#: Ops delivered (handed to a server) over each CI sweep, all schedules.
SWEEP_OPS = {
    "centralized-n2-p1-rw": {"svm.write"},
    "fixed-n2-p1-rw": {"svm.write"},
    "dynamic-n2-p1-rw": {"svm.write"},
    "broadcast-n2-p1-rw": {"svm.write", "svm.locate"},
    "centralized-n3-p2-rw": {"svm.write", "svm.read"},
    "fixed-n3-p2-rw": {"svm.write", "svm.read"},
    "centralized-n3-p1-mixed": {"svm.write"},
    "fixed-n3-p1-chown": {"svm.chown"},
    "dynamic-n3-p1-chown+hint1": {"svm.chown", "svm.hint"},
    "dynamic-n4-p1-rw": {"svm.write", "svm.read"},
    "centralized-n4-p1-rw": {"svm.write", "svm.read"},
}


def test_ci_sweeps_deliver_exactly_the_pinned_ops_and_event_counts(ci_sweeps):
    """Settles "does ``rw`` ever read-fault?" with data: yes, from
    3 nodes / 2 pages or 4 nodes / 1 page up, and no CI sweep ever
    delivers an invalidation — that is ``mutate-upgrade``'s job (last
    assertion).  The four ``_workload_*`` docstrings say exactly this.
    Event counts are compared with the committed baseline on the way."""
    known = {op for cls in _protocol_classes().values() for op in cls.op_table()}
    baseline = json.loads(BASELINE.read_text())["sweeps"]
    assert {eb._key(s) for s in eb.SWEEPS} == set(SWEEP_OPS) == set(baseline)
    for key in SWEEP_OPS:
        result, delivered = ci_sweeps[key]
        assert result.clean, key
        assert delivered == SWEEP_OPS[key] <= known, key
        assert result.events == baseline[key]["events"], key

    result, delivered = ci_sweeps["mutate-upgrade"]
    assert result.clean
    assert delivered == {"svm.read", "svm.inv"}


def test_event_count_is_an_exact_field_of_the_bench_record():
    sweeps = (Scenario("fixed", 2, 1, "rw"),)
    bench = eb.run_bench(sweeps)
    sweep = bench["sweeps"]["fixed-n2-p1-rw"]
    assert sweep["events"] == 30 and sweep["schedules"] == 2
    assert bench == eb.run_bench(sweeps)
    drifted = copy.deepcopy(bench)
    drifted["sweeps"]["fixed-n2-p1-rw"]["events"] += 1
    assert drifted != bench
