"""Windowed-series tests: bucketing, sparse storage, accessors of the
one windowed store, :class:`repro.obs.timeline.Timeline` (its span and
link series are tested in tests/obs/test_timeline.py)."""

import pytest

from repro.obs.timeline import Timeline


def test_window_width_must_be_positive():
    with pytest.raises(ValueError):
        Timeline(0)
    with pytest.raises(ValueError):
        Timeline(-5)


def test_window_of_is_floor_division():
    tl = Timeline(100)
    for t in (0, 99, 100, 250):
        tl.observe("lat", 1.0, t=t)
    counts = {w: hist.count for w, hist in tl.histograms["lat"].items()}
    assert counts == {0: 2, 1: 1, 2: 1}


def test_counter_buckets_and_totals():
    tl = Timeline(100)
    tl.span("fault", 10, 30)
    tl.span("fault", 60, 90)
    tl.span("fault", 250, 260)
    busy = tl.counters["span.fault.busy_ns"]
    assert busy == {0: 50, 2: 10}  # quiet window 1 costs nothing
    assert sum(busy.values()) == 60


def test_counter_window_of_unknown_instrument_is_zero():
    from repro.obs.slo import evaluate, parse_slo

    tl = Timeline(100)
    assert "span.nope.busy_ns" not in tl.counters
    # An SLO over an instrument with no data has no value, never a violation.
    report = evaluate(tl, 100, [parse_slo("count(span.nope.busy_ns) < 1")])
    assert report.results[0].values == [None] and report.ok


def test_gauge_tracks_last_and_peak_per_window():
    tl = Timeline(100)
    tl.gauge("backlog", 5.0, t=10)
    tl.gauge("backlog", 9.0, t=20)
    tl.gauge("backlog", 2.0, t=30)
    tl.gauge("backlog", 1.0, t=150)
    assert tl.gauges["backlog"] == {0: (2.0, 9.0), 1: (1.0, 1.0)}
    assert "nope" not in tl.gauges


def test_histogram_is_per_window():
    tl = Timeline(100)
    tl.observe("lat", 5, t=10)
    tl.observe("lat", 15, t=20)
    tl.observe("lat", 1000, t=150)
    h0 = tl.hist_window("lat", 0)
    h1 = tl.hist_window("lat", 1)
    assert h0 is not None and h0.count == 2 and h0.max == 15
    assert h1 is not None and h1.count == 1 and h1.max == 1000
    assert tl.hist_window("lat", 2) is None
    assert tl.hist_window("nope", 0) is None


def test_histogram_backend_is_inherited_from_registry():
    from repro.metrics.hist import LogBucketHistogram

    tl = Timeline(100, hist_backend="logbucket")
    tl.observe("lat", 123, t=10)
    assert isinstance(tl.hist_window("lat", 0), LogBucketHistogram)


def test_max_window_spans_all_instrument_kinds():
    tl = Timeline(100)
    assert tl.max_window() == -1
    tl.span("c", 150, 160)
    assert tl.max_window() == 1
    tl.gauge("g", 1.0, t=450)
    assert tl.max_window() == 4
    tl.observe("h", 1, t=960)
    assert tl.max_window() == 9
    tl.link_busy("m", 1000, 1010)
    assert tl.max_window() == 10
