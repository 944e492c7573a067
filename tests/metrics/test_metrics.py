"""Unit tests for counters, epoch logs, the speedup harness and reports."""

import pytest

from repro.apps.jacobi import JacobiApp
from repro.metrics.collect import Counters, EpochLog
from repro.metrics.report import ascii_table
from repro.metrics.speedup import SpeedupResult, RunResult, measure_speedups


def test_counters_basic():
    c = Counters()
    c.inc("a")
    c.inc("a", 4)
    assert c["a"] == 5
    assert c["missing"] == 0
    assert c.snapshot() == {"a": 5}


def test_counters_merge():
    a, b = Counters(), Counters()
    a.inc("x", 2)
    b.inc("x", 3)
    b.inc("y")
    merged = Counters.merge([a, b])
    assert merged["x"] == 5 and merged["y"] == 1
    # Merge is a snapshot, not a live view.
    a.inc("x")
    assert merged["x"] == 5


def test_epoch_log_deltas_and_series():
    a, b = Counters(), Counters()
    log = EpochLog([a, b])
    a.inc("disk", 3)
    assert log.mark("e1") == {"disk": 3}
    b.inc("disk", 2)
    a.inc("other", 1)
    assert log.mark("e2") == {"disk": 2, "other": 1}
    assert log.mark("e3") == {}
    assert log.series("disk") == [("e1", 3), ("e2", 2), ("e3", 0)]


def test_ascii_table_alignment():
    out = ascii_table(["name", "v"], [["a", 1], ["long", 22]], title="T")
    lines = out.split("\n")
    assert lines[0] == "T"
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def test_speedup_result_math():
    res = SpeedupResult(
        app_name="x",
        runs=[
            RunResult(1, 1000, Counters(), {}),
            RunResult(2, 400, Counters(), {}),
        ],
    )
    assert res.base_time == 1000
    assert res.speedup(2) == pytest.approx(2.5)
    assert res.curve() == [(1, 1.0), (2, 2.5)]
    with pytest.raises(KeyError):
        res.speedup(4)


def test_speedup_result_requires_base_run():
    res = SpeedupResult(app_name="x", runs=[RunResult(2, 400, Counters(), {})])
    with pytest.raises(ValueError):
        res.base_time


def test_measure_speedups_checks_every_run():
    class Lying(JacobiApp):
        def check(self, result):
            raise AssertionError("always wrong")

    with pytest.raises(AssertionError, match="always wrong"):
        measure_speedups(lambda p: Lying(p, n=16, iters=1), procs=(1,))
