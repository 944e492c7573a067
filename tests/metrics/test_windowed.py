"""Windowed-instrument tests: bucketing, sparse storage, accessors."""

import pytest

from repro.metrics.windowed import (
    WindowedCounter,
    WindowedGauge,
    WindowedMetrics,
)


def test_window_width_must_be_positive():
    with pytest.raises(ValueError):
        WindowedMetrics(0)
    with pytest.raises(ValueError):
        WindowedMetrics(-5)


def test_window_of_is_floor_division():
    wm = WindowedMetrics(100)
    assert wm.window_of(0) == 0
    assert wm.window_of(99) == 0
    assert wm.window_of(100) == 1
    assert wm.window_of(250) == 2


def test_counter_buckets_and_totals():
    wm = WindowedMetrics(100)
    wm.count("faults", t=10)
    wm.count("faults", t=90, by=2)
    wm.count("faults", t=250)
    assert wm.counter_window("faults", 0) == 3
    assert wm.counter_window("faults", 1) == 0  # quiet window costs nothing
    assert wm.counter_window("faults", 2) == 1
    assert wm.counters["faults"].total == 4
    assert set(wm.counters["faults"].windows) == {0, 2}


def test_counter_window_of_unknown_instrument_is_zero():
    wm = WindowedMetrics(100)
    assert wm.counter_window("nope", 0) == 0


def test_gauge_tracks_last_and_peak_per_window():
    wm = WindowedMetrics(100)
    wm.gauge("backlog", t=10, value=5.0)
    wm.gauge("backlog", t=20, value=9.0)
    wm.gauge("backlog", t=30, value=2.0)
    wm.gauge("backlog", t=150, value=1.0)
    assert wm.gauge_window("backlog", 0) == (2.0, 9.0)
    assert wm.gauge_window("backlog", 1) == (1.0, 1.0)
    assert wm.gauge_window("backlog", 2) is None
    assert wm.gauge_window("nope", 0) is None


def test_histogram_is_per_window():
    wm = WindowedMetrics(100)
    wm.observe("lat", t=10, value=5)
    wm.observe("lat", t=20, value=15)
    wm.observe("lat", t=150, value=1000)
    h0 = wm.hist_window("lat", 0)
    h1 = wm.hist_window("lat", 1)
    assert h0 is not None and h0.count == 2 and h0.max == 15
    assert h1 is not None and h1.count == 1 and h1.max == 1000
    assert wm.hist_window("lat", 2) is None


def test_histogram_backend_is_inherited_from_registry():
    from repro.metrics.hist import LogBucketHistogram

    wm = WindowedMetrics(100, hist_backend="logbucket")
    wm.observe("lat", t=10, value=123)
    hist = wm.hist_window("lat", 0)
    assert isinstance(hist, LogBucketHistogram)


def test_max_window_spans_all_instrument_kinds():
    wm = WindowedMetrics(100)
    assert wm.max_window() == -1
    wm.count("c", t=150)
    assert wm.max_window() == 1
    wm.gauge("g", t=450, value=1.0)
    assert wm.max_window() == 4
    wm.observe("h", t=960, value=1)
    assert wm.max_window() == 9


def test_standalone_counter_and_gauge():
    c = WindowedCounter("c")
    c.add(3)
    c.add(3, by=4)
    assert c.windows == {3: 5}
    assert c.total == 5
    g = WindowedGauge("g")
    g.set(0, 7.0)
    g.set(0, 3.0)
    assert g.windows[0] == (3.0, 7.0)
