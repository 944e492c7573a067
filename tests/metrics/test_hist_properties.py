"""Property tests (hypothesis) for the two histogram backends and for
the timeline windows that split a run's histograms.

The samples mix ints with equal-valued floats (``3`` and ``3.0``),
zeros and negatives: a report prints ``3`` and ``3.0`` differently, so
on a tie ``min``/``max`` must keep the sample seen first, as the
``min``/``max`` builtins do.  Values are whole numbers, so every sum is
exact in any order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MILLISECOND, ClusterConfig, ObsConfig
from repro.exps.parallel import Job
from repro.metrics.hist import ALPHA, Histogram, LogBucketHistogram, _rank

whole = st.integers(min_value=-50, max_value=10**9)
samples = st.lists(
    st.one_of(whole, whole.map(float), st.sampled_from([0, 0.0, 3, 3.0])),
    min_size=1, max_size=60,
)
percentiles = st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=5)


def _same(a, b):
    """Equal and of one type (``3 == 3.0``, but they print differently)."""
    return a == b and type(a) is type(b)


@settings(max_examples=300)
@given(values=samples, qs=percentiles)
def test_both_backends_match_a_plain_reference(values, qs):
    exact, sketch = Histogram("h"), LogBucketHistogram("h")
    for value in values:
        exact.observe(value)
        sketch.observe(value)
    ordered = sorted(values)  # stable: ties keep arrival order
    for hist in (exact, sketch):
        assert hist.count == len(values)
        assert hist.total == sum(values)
        assert _same(hist.min, min(values)) and _same(hist.max, max(values))
    for q in qs:
        want = ordered[_rank(q, len(values)) - 1]
        assert _same(exact.percentile(q), want)
        got = sketch.percentile(q)
        if want > 0:
            assert abs(got - want) <= ALPHA * want
        else:
            assert got == 0.0  # the one exact bucket for non-positive samples


@settings(max_examples=300)
@given(values=samples)
def test_a_bucket_handed_on_lands_the_sample_where_its_own_would(values):
    """``Observability.observe`` passes the run histogram's bucket to the
    window's histogram; that must file the sample exactly as computing
    the bucket again would."""
    fresh, handed, run = (LogBucketHistogram("h") for _ in range(3))
    for value in values:
        fresh.observe(value)
        handed.observe(value, run.observe(value))
    assert handed._buckets == fresh._buckets and handed._zero == fresh._zero


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    nprocs=st.sampled_from([2, 4]),
    window_ms=st.integers(min_value=1, max_value=40),
)
def test_each_run_histogram_is_the_merge_of_its_windows(seed, nprocs, window_ms):
    """An observed logbucket run files every sample twice, in the run's
    histogram and in its window's: merging the windows gives back the
    run's histogram, bucket for bucket."""
    obs = ObsConfig(timeline_window_ns=window_ms * MILLISECOND, hist_backend="logbucket")
    res = Job("dotprod", {"n": 2048}, nprocs=nprocs,
              config=ClusterConfig(seed=seed, obs=obs)).run()
    run, timeline = res.obs.metrics.histograms, res.obs.timeline
    assert run
    for name, hist in run.items():
        windows = timeline.histograms[name].values()
        buckets = {}
        for window in windows:
            for key, n in window._buckets.items():
                buckets[key] = buckets.get(key, 0) + n
        assert buckets == hist._buckets
        assert sum(w._zero for w in windows) == hist._zero
        assert sum(w.count for w in windows) == hist.count
        assert sum(w.total for w in windows) == hist.total
        assert min(w.min for w in windows) == hist.min
        assert max(w.max for w in windows) == hist.max
