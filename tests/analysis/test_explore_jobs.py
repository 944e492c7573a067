"""The explorer's ``jobs`` contract: the same result from any number of
processes, and workers that never outlive — or hang — the call.

A DFS subtree is a function of its ``(prefix, sleep set)`` entry, so
forked workers execute subtrees and the parent records in the
one-process order.  These tests pin that for complete and truncated
sweeps, clean and violating ones, and pin what happens when a worker
raises, dies, or the user interrupts.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import threading
from pathlib import Path

import pytest

from repro.analysis import explore as ex
from repro.analysis import explorebench as eb
from repro.analysis.explore import Scenario
from repro.config import ConfigError
from repro.exps.parallel import WorkerError

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_explore.json"
HINT_SWEEP = Scenario("dynamic", 3, 1, "chown", hint_period=1)  # 768 schedules
JOBS = (1, 2, 3)


@functools.cache
def sequential(scenario: Scenario) -> ex.ExplorationResult:
    """The complete one-process sweep everything here is compared with."""
    return ex.explore_dfs(scenario, max_schedules=50_000, jobs=1)


# ----------------------------------------------------------------------
# the same ExplorationResult for every worker count


@pytest.mark.parametrize("scenario", eb.SWEEPS, ids=eb._key)
def test_every_ci_sweep_is_equal_for_any_worker_count(scenario):
    """Two and three processes against the committed record (CI
    regenerates it with one process per CPU and diffs it); the hint
    sweep also runs the full 1/2/3 triple."""
    committed = json.loads(BASELINE.read_text())["sweeps"][eb._key(scenario)]
    two, three = (
        ex.explore_dfs(scenario, max_schedules=50_000, jobs=jobs) for jobs in (2, 3)
    )
    assert two.clean and two == three
    assert eb._sweep(scenario, two) == committed
    if scenario == HINT_SWEEP:
        assert sequential(scenario) == two


def test_a_sweep_too_small_to_fill_the_frontier_never_forks(forks):
    small = Scenario("centralized", 3, 1, "mixed")
    assert ex.explore_dfs(small, jobs=2) == ex.explore_dfs(small, jobs=1)
    assert forks == [] and ex.explore_dfs(small, jobs=2).workers == 0
    big = ex.explore_dfs(HINT_SWEEP, jobs=3)
    assert (big.schedules, big.workers, len(forks)) == (768, 3, 3)
    assert sequential(HINT_SWEEP).workers == 0  # and not part of equality


@pytest.mark.parametrize("mutation", ["lost-copyset", "ghost-copyset"])
def test_seeded_mutations_report_the_same_violations(mutation):
    scenario = Scenario("dynamic", 3, 1, "mutate-upgrade", mutation=mutation)
    one, two, three = (ex.explore_dfs(scenario, jobs=jobs) for jobs in JOBS)
    assert one.violations and one == two == three


def test_violations_keep_the_sequential_order(monkeypatch):
    """The seeded mutations violate on both of their two schedules, which
    no worker ever sees; so: 768 schedules of which every one whose
    choices sum to a multiple of five is *reported* as a violation
    (workers are forked, so they run the patch too).  Same list, same
    order, and the order is the order of execution in one process."""
    real = ex.run_scenario
    executed: list[tuple[int, ...]] = []

    def flagging(*args, **kwargs):
        run = real(*args, **kwargs)
        executed.append(run.choices)
        if sum(run.choices) % 5:
            return run
        return dataclasses.replace(
            run, status="violation", rule="flagged", fingerprint=None
        )

    monkeypatch.setattr(ex, "run_scenario", flagging)
    one, two, three = (ex.explore_dfs(HINT_SWEEP, jobs=jobs) for jobs in JOBS)
    assert len(one.violations) > 100 and one.statuses["ok"] > 100
    assert [ce.choices for ce in one.violations] == [
        choices for choices in executed[:768] if sum(choices) % 5 == 0
    ]
    assert one == two == three


def test_full_enumeration_is_equal_for_any_worker_count():
    one, two, three = (
        ex.explore_dfs(HINT_SWEEP, por=False, jobs=jobs) for jobs in JOBS
    )
    assert one.schedules == 1728 and one.sleep_pruned == 0
    assert one == two == three


@pytest.mark.parametrize("cut", [5, 100, 700])
def test_truncated_sweeps_report_the_same_prefix(cut):
    """Below, inside and above what the coordinator executes itself.  A
    parallel sweep may execute more than it reports — never report
    anything but the first ``cut`` schedules of the sequential order."""
    complete = sequential(HINT_SWEEP)
    one, two, three = (
        ex.explore_dfs(HINT_SWEEP, max_schedules=cut, jobs=jobs) for jobs in JOBS
    )
    assert one.truncated and one.schedules == cut
    assert one.fingerprints <= complete.fingerprints
    assert one == two == three
    exact = ex.explore_dfs(HINT_SWEEP, max_schedules=768, jobs=2)
    assert not exact.truncated and exact == complete


def test_sleep_pruned_counts_the_children_the_sleep_sets_skipped():
    reduced = sequential(HINT_SWEEP)
    assert (reduced.schedules, reduced.sleep_pruned) == (768, 108)
    # No 4-node rw tie is between independent deliveries: nothing to prune.
    assert sequential(Scenario("dynamic", 4, 1, "rw")).sleep_pruned == 0


def test_extractor_errors_come_back_from_the_workers(monkeypatch):
    """The registry is per process; each run's own delta travels with
    its result, so the total is exact wherever the run executed."""
    from repro.net import packet

    real = ex.run_scenario

    def failing_once_per_run(*args, **kwargs):
        packet._EXTRACTOR_ERRORS["t.op"] = packet._EXTRACTOR_ERRORS.get("t.op", 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(ex, "run_scenario", failing_once_per_run)
    monkeypatch.setattr(packet, "_EXTRACTOR_ERRORS", {})
    assert ex.explore_dfs(HINT_SWEEP, jobs=2).extractor_errors == {"t.op": 768}
    for jobs in JOBS:
        cut = ex.explore_dfs(HINT_SWEEP, max_schedules=100, jobs=jobs)
        assert cut.extractor_errors == {"t.op": 100}


def test_cli_names_the_workers_it_used_and_the_pruned_children(capsys):
    from repro.analysis.__main__ import main

    sweep = ["explore", "--nodes", "3", "--workload", "chown", "--hint-period", "1"]
    lines = []
    for jobs in ("1", "2"):
        assert main([*sweep, "--jobs", jobs]) == 0
        lines.append(capsys.readouterr().out.splitlines())
    (one, pruned_one), (two, pruned_two) = lines
    assert re.search(r"768 schedules \[ok=768\], 30720 events, [\d,]+ schedules/s in-process,", one)
    assert re.search(r"schedules/s on 2 workers,", two)
    assert pruned_one == pruned_two == "  sleep sets pruned 108 children"
    rate = r"[\d,]+ schedules/s (in-process|on \d workers)"
    assert re.sub(rate, "", one) == re.sub(rate, "", two)
    # What ran, not what was asked for: this sweep never fills the frontier.
    assert main(["explore", "--nodes", "2", "--jobs", "2"]) == 0
    assert "schedules/s in-process," in capsys.readouterr().out
    with pytest.raises(SystemExit) as usage:
        main([*sweep, "--jobs", "0"])
    assert usage.value.code == 2
    assert "jobs must be an integer >= 1, got 0" in capsys.readouterr().err


def test_a_truncated_cli_sweep_exits_one(capsys):
    """A sweep cut at its cap proves nothing, as ``explore-bench``
    already says: the CLI fails it like a violation."""
    from repro.analysis.__main__ import main

    assert main(["explore", "--nodes", "3", "--max-schedules", "5"]) == 1
    out = capsys.readouterr().out
    assert "5 schedules [ok=5] (truncated)" in out
    assert out.splitlines()[-1] == "FAIL: truncated sweep proves nothing"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-events", "0"], "max_events must be an integer >= 1, got 0"),
        (["--max-schedules", "0"], "max_schedules must be an integer >= 1, got 0"),
        (["--strategy", "delay", "--max-schedules", "0"],
         "max_schedules must be an integer >= 1, got 0"),
        (["--strategy", "pct", "--samples", "-1"], "samples must be an integer >= 0, got -1"),
        (["--pages", "0"], "scenario.pages must be an integer >= 1, got 0"),
        (["--hint-period", "-1"],
         "svm.dynamic_broadcast_period must be an integer >= 0, got -1"),
    ],
    ids=["max-events", "max-schedules", "delay-max-schedules", "samples", "pages",
         "hint-period"],
)
def test_an_explorer_input_out_of_range_is_a_usage_error(flags, message, capsys):
    from repro.analysis.__main__ import main

    with pytest.raises(SystemExit) as usage:
        main(["explore", *flags])
    assert usage.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # refused before the first schedule ran
    assert captured.err.splitlines()[-1].endswith(f"error: {message}")


def test_sleep_pruned_is_an_exact_field_of_the_bench_record():
    sweeps = (Scenario("fixed", 3, 1, "chown"),)
    bench = eb.run_bench(sweeps, jobs=2)
    assert bench["sweeps"]["fixed-n3-p1-chown"]["sleep_pruned"] == 0
    assert bench == eb.run_bench(sweeps, jobs=1)
    drifted = copy.deepcopy(bench)
    drifted["sweeps"]["fixed-n3-p1-chown"]["sleep_pruned"] += 1
    assert drifted != bench
    committed = json.loads(BASELINE.read_text())["sweeps"]
    assert committed["dynamic-n3-p1-chown+hint1"]["sleep_pruned"] == 108


# ----------------------------------------------------------------------
# a worker that raises or dies is a located error, never a hang


def deepest_prefix(monkeypatch) -> tuple[int, ...]:
    """A prescription far below anything the coordinator executes."""
    real = ex.run_scenario
    prefixes: list[tuple[int, ...]] = []

    def recording(scenario, choices=(), **kwargs):
        prefixes.append(tuple(choices))
        return real(scenario, choices=choices, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(ex, "run_scenario", recording)
        ex.explore_dfs(HINT_SWEEP, jobs=1)
    return max(prefixes, key=len)


@pytest.mark.parametrize("how", ["raises", "exits"])
def test_a_failing_worker_is_a_located_error(how, monkeypatch, deadline, reaped):
    target = deepest_prefix(monkeypatch)
    real = ex.run_scenario

    def failing(scenario, choices=(), **kwargs):
        if tuple(choices) == target:
            if how == "exits":
                os._exit(3)
            raise ValueError("boom")
        return real(scenario, choices=choices, **kwargs)

    monkeypatch.setattr(ex, "run_scenario", failing)
    with pytest.raises(WorkerError) as caught:
        ex.explore_dfs(HINT_SWEEP, jobs=2)
    message = str(caught.value)
    # The item is the subtree's (prefix, sleep set) entry.
    prefix = re.search(r"item \d+ \(\(\(([\d, ]*)\),", message).group(1)
    leaf = tuple(int(c) for c in prefix.split(",") if c.strip())
    assert leaf and leaf == target[: len(leaf)]  # the subtree it was in
    expected = "exited with status 3" if how == "exits" else "raised ValueError: boom"
    assert expected in message
    reaped()
    # In this process the same failure is simply the exception.
    if how == "raises":
        with pytest.raises(ValueError, match="boom"):
            ex.explore_dfs(HINT_SWEEP, jobs=1)


def test_an_interrupt_stops_and_reaps_every_worker(monkeypatch, deadline, reaped):
    from multiprocessing import connection

    def interrupted(conns):
        raise KeyboardInterrupt

    monkeypatch.setattr(connection, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        ex.explore_dfs(HINT_SWEEP, jobs=2)
    reaped()


def test_a_complete_sweep_leaves_no_process_behind(deadline, reaped):
    assert ex.explore_dfs(HINT_SWEEP, jobs=3).clean
    assert ex.explore_dfs(HINT_SWEEP, max_schedules=100, jobs=3).truncated
    reaped()


def test_where_forking_is_unsafe_the_sweep_runs_in_process(monkeypatch, forks):
    """A daemonic process may not have children, and a fork copies the
    locks of threads it does not copy: ``jobs`` is one in both."""
    cut = ex.explore_dfs(HINT_SWEEP, max_schedules=200, jobs=1)
    with monkeypatch.context() as daemonic:
        daemonic.setattr(multiprocessing.current_process(), "_config", {"daemon": True})
        assert ex.explore_dfs(HINT_SWEEP, max_schedules=200, jobs=2) == cut
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert ex.explore_dfs(HINT_SWEEP, max_schedules=200, jobs=2) == cut
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive() and forks == []
    assert ex.explore_dfs(HINT_SWEEP, max_schedules=200, jobs=2) == cut
    assert len(forks) == 2


# ----------------------------------------------------------------------
# a bad scenario fails before any cluster or worker exists


@pytest.mark.parametrize(
    "attribute, value, field, suggestion",
    [
        ("workload", "chwon", "scenario.workload", "chown"),
        ("mutation", "ghost-copyse", "scenario.mutation", "ghost-copyset"),
        ("algorithm", "dynamc", "svm.algorithm", "dynamic"),
        ("fabric", "rign", "fabric.backend", "ring"),
    ],
)
def test_a_bad_scenario_is_a_config_error_with_a_suggestion(
    attribute, value, field, suggestion, monkeypatch, forks
):
    base = Scenario("dynamic", 3, 1, "mutate-upgrade")
    scenario = dataclasses.replace(base, **{attribute: value})
    if attribute != "fabric":  # that one the cluster's own fabric factory rejects

        def no_cluster(config):
            raise AssertionError("a cluster was built for a bad scenario")

        monkeypatch.setattr(ex, "Cluster", no_cluster)
    for entry in (ex.run_scenario, ex.explore_dfs, ex.explore_pct, ex.explore_delay):
        with pytest.raises(ConfigError) as caught:
            entry(scenario)
        error = caught.value
        assert (error.field, error.value, error.suggestion) == (field, value, suggestion)
    assert forks == []
