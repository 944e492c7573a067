"""Histogram / gauge / metrics-registry unit tests, including the
percentile edge cases the reports depend on (empty, single-sample) and
the log-bucket backend's relative-error guarantee."""

import pytest

from repro.metrics.hist import (
    ALPHA,
    HIST_BACKENDS,
    Gauge,
    Histogram,
    LogBucketHistogram,
    Metrics,
    make_histogram,
)


def test_empty_histogram_reports_none_everywhere():
    h = Histogram("empty")
    assert h.count == 0 and h.total == 0
    assert h.min is None and h.max is None and h.mean() is None
    for q in (0, 50, 95, 99, 100):
        assert h.percentile(q) is None
    summary = h.summary()
    assert summary["count"] == 0 and summary["p50"] is None


def test_single_sample_is_every_percentile():
    h = Histogram("one")
    h.observe(42)
    for q in (0, 1, 50, 95, 99, 100):
        assert h.percentile(q) == 42
    assert h.min == h.max == h.mean() == 42


def test_percentiles_are_nearest_rank_not_interpolated():
    h = Histogram("ranks")
    for v in (10, 20, 30, 40):
        h.observe(v)
    # ceil(q*n/100) ranks: every answer is an observed value.
    assert h.percentile(0) == 10
    assert h.percentile(25) == 10
    assert h.percentile(26) == 20
    assert h.percentile(50) == 20
    assert h.percentile(75) == 30
    assert h.percentile(99) == 40
    assert h.percentile(100) == 40


def test_percentile_rejects_out_of_range_q():
    h = Histogram("x")
    h.observe(1)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(100.5)


def test_out_of_order_observations_still_rank_correctly():
    h = Histogram("shuffle")
    for v in (30, 10, 40, 20):
        h.observe(v)
    assert h.percentile(50) == 20
    assert h.max == 40
    # Observing after a percentile query re-sorts lazily.
    h.observe(5)
    assert h.percentile(0) == 5
    assert [h.percentile(q) for q in (20, 40, 60, 80, 100)] == [5, 10, 20, 30, 40]


def test_gauge_tracks_latest_and_peak():
    g = Gauge("frames")
    assert g.value is None and g.peak is None
    g.set(4)
    g.set(9)
    g.set(2)
    assert g.value == 2 and g.peak == 9 and g.updates == 3


def test_metrics_registry_reuses_instruments():
    m = Metrics()
    m.observe("lat", 5)
    m.observe("lat", 7)
    m.gauge("level", 3)
    assert m.histogram("lat") is m.histograms["lat"]
    assert m.histograms["lat"].count == 2
    snap = m.snapshot()
    assert snap["lat"]["count"] == 2 and snap["lat"]["p50"] == 5
    assert snap["level"] == {"value": 3, "peak": 3, "updates": 1}


# ---------------------------------------------------------------------------
# log-bucket (DDSketch-style) backend


def _lat_samples():
    """A deterministic heavy-tailed latency-ish sequence (ns scale)."""
    out = []
    v = 100.0
    for i in range(2000):
        v = v * 1.01 if i % 7 else v * 0.55
        out.append(int(v) + i % 13)
    out.extend(range(1, 50))  # a low head
    out.extend((10_000_000, 25_000_000, 99_000_000))  # a far tail
    return out


@pytest.mark.parametrize("alpha", [ALPHA])
@pytest.mark.parametrize("q", [50, 90, 95, 99, 100])
def test_logbucket_percentile_relative_error_is_bounded(alpha, q):
    # The contract: every reported quantile is within ALPHA relative
    # error of the exact nearest-rank answer.
    exact = Histogram("exact")
    sketch = LogBucketHistogram("sketch")
    for v in _lat_samples():
        exact.observe(v)
        sketch.observe(v)
    truth = exact.percentile(q)
    got = sketch.percentile(q)
    assert truth is not None and got is not None
    assert abs(got - truth) / truth <= alpha, (q, got, truth)


def test_logbucket_memory_is_bounded_by_range_not_count():
    sketch = LogBucketHistogram("mem")
    for i in range(50_000):
        sketch.observe(100 + (i * 37) % 10_000)
    assert sketch.count == 50_000
    # ln(10100/100)/ln(gamma) buckets at most — far below the count.
    assert sketch.nbuckets < 300


def test_logbucket_empty_single_and_nonpositive():
    sketch = LogBucketHistogram("edge")
    assert sketch.count == 0 and sketch.percentile(50) is None
    sketch.observe(0)
    sketch.observe(-5)
    # Non-positive values land in the exact zero bucket.
    assert sketch.count == 2
    assert sketch.percentile(50) == 0
    # 43's bucket midpoint lies above 43 (42's lies below 42).
    sketch.observe(43)
    assert sketch.min == -5 and sketch.max == 43
    assert sketch.percentile(100) == 43  # clamped to the observed max


def test_logbucket_min_max_total_are_exact():
    sketch = LogBucketHistogram("exactish")
    for v in (5, 17, 900):
        sketch.observe(v)
    assert sketch.min == 5 and sketch.max == 900
    assert sketch.total == 922
    assert sketch.mean() == pytest.approx(922 / 3)


def test_make_histogram_selects_backend():
    assert isinstance(make_histogram("x", "exact"), Histogram)
    assert isinstance(make_histogram("x", "logbucket"), LogBucketHistogram)
    with pytest.raises(ValueError):
        make_histogram("x", "tdigest")
    assert set(HIST_BACKENDS) == {"exact", "logbucket"}


def test_metrics_registry_backend_is_registry_wide():
    exact, bucketed = Metrics(), Metrics(default_backend="logbucket")
    for m in (exact, bucketed):
        m.observe("fault.read_ns", 100)
        m.observe("other", 5)
    assert all(isinstance(h, Histogram) for h in exact.histograms.values())
    assert all(
        isinstance(h, LogBucketHistogram) for h in bucketed.histograms.values()
    )
    with pytest.raises(ValueError):
        Metrics(default_backend="nope")


def test_format_instruments_renders_percentile_columns():
    from repro.metrics.report import format_instruments

    m = Metrics()
    for v in range(1, 101):
        m.observe("fault.read_ns", v)
    m.gauge("frames.resident", 12)
    table = format_instruments(m)
    assert "fault.read_ns" in table
    assert "p50" in table and "p95" in table and "p99" in table
    assert "frames.resident (gauge)" in table
    empty = format_instruments(Metrics())
    assert "(no observations)" in empty
