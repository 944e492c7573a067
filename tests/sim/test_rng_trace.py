"""Unit tests for seeded RNG streams and the trace recorder."""

import pytest

from repro.sim.rng import RngStreams
from repro.sim.trace import NULL_TRACE, TraceRecorder


def test_streams_are_deterministic_per_seed_and_name():
    a = RngStreams(42).stream("ring").random(5).tolist()
    b = RngStreams(42).stream("ring").random(5).tolist()
    assert a == b


def test_streams_differ_across_names_and_seeds():
    r = RngStreams(42)
    assert r.stream("ring").random(3).tolist() != r.stream("pager-0").random(3).tolist()
    assert (
        RngStreams(42).stream("ring").random(3).tolist()
        != RngStreams(43).stream("ring").random(3).tolist()
    )


def test_stream_creation_order_does_not_matter():
    r1 = RngStreams(7)
    first_a = r1.stream("a").random(3).tolist()
    r2 = RngStreams(7)
    r2.stream("b")  # created before "a" this time
    assert r2.stream("a").random(3).tolist() == first_a


def test_stream_is_cached():
    r = RngStreams(1)
    assert r.stream("x") is r.stream("x")


@pytest.mark.parametrize(
    "seed,name,first,second",
    [
        (1988, "ring", 0.8279440370189645, 3695774616903808598),
        (1988, "pager-0", 0.5543550291314661, 1041113197986178289),
        (7, "fabric", 0.3532438971653761, 4151665928617075235),
    ],
)
def test_first_draws_of_the_named_streams_are_pinned(seed, name, first, second):
    """Every lossy run and every random-replacement run replays these
    draws: the values were recorded while ``RngStreams`` still built a
    root ``SeedSequence`` per cluster, and deriving each stream straight
    from ``(seed, name)`` must not move one bit of them."""
    gen = RngStreams(seed).stream(name)
    assert gen.random() == first
    assert int(gen.integers(1 << 62)) == second


def test_trace_records_and_selects():
    trace = TraceRecorder()
    now = [0]
    trace.bind_clock(lambda: now[0])
    trace.emit("cat", a=1)
    now[0] = 10
    trace.emit("cat", a=2)
    trace.emit("other", b=3)
    assert trace.count("cat") == 2
    assert trace.count("cat", a=2) == 1
    assert trace.select("cat", a=2)[0].time == 10
    assert trace.select("cat")[0]["a"] == 1
    assert len(list(trace)) == 3


def test_trace_category_filter():
    trace = TraceRecorder(categories={"keep"})
    trace.emit("keep", x=1)
    trace.emit("drop", x=2)
    assert trace.count("keep") == 1
    assert trace.count("drop") == 0


def test_null_trace_is_falsy_and_silent():
    assert not NULL_TRACE
    NULL_TRACE.emit("anything", x=1)
    assert NULL_TRACE.events == []


def test_cluster_trace_integration():
    """A traced cluster records protocol events with simulated times."""
    from repro.api.cluster import Cluster
    from repro.config import ClusterConfig

    trace = TraceRecorder()
    cluster = Cluster(ClusterConfig(nodes=2), trace=trace)
    addr = cluster.config.svm.shared_base

    def writer():
        yield from cluster.node(1).mem.write_i64(addr, 5)

    task = cluster.spawn_system(writer(), "w")
    cluster.run()
    assert task.error is None
    faults = trace.select("svm.write_fault", node=1)
    assert len(faults) == 1
    assert faults[0].time > 0
    assert trace.count("ring.send") > 0


def test_save_warns_about_unstamped_events(tmp_path):
    """Events emitted before bind_clock carry UNSTAMPED; save() keeps
    them (the stream stays complete) but warns with the exact count."""
    trace = TraceRecorder()
    trace.emit("svm.read_fault", node=0, page=1, ns=111)  # pre-boot
    now = [0]
    trace.bind_clock(lambda: now[0])
    now[0] = 50
    trace.emit("svm.read_fault", node=0, page=2, ns=40)

    path = tmp_path / "trace.jsonl"
    with pytest.warns(UserWarning, match="1 of 2 trace events are UNSTAMPED"):
        assert trace.save(str(path)) == 2
    # The unstamped event is saved, not dropped.
    assert len(TraceRecorder.load(str(path)).events) == 2


def test_save_of_fully_stamped_trace_is_silent(tmp_path):
    import warnings

    trace = TraceRecorder()
    trace.bind_clock(lambda: 7)
    trace.emit("svm.read_fault", node=0, page=1, ns=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace.save(str(tmp_path / "t.jsonl")) == 1
