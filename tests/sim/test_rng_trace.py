"""Unit tests for seeded RNG streams, and a checked cluster's recorded
protocol stream."""

import pytest

from repro.sim.rng import RngStreams


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


def test_cluster_trace_integration():
    """A checked cluster's recorded protocol stream carries simulated
    times, and the fabric counts the messages the fault sent."""
    from repro.analysis.replay import record_stream
    from repro.api.cluster import Cluster
    from repro.config import ClusterConfig

    cluster = Cluster(ClusterConfig(nodes=2, checker=True))
    stream = record_stream(cluster)
    addr = cluster.config.svm.shared_base

    def writer():
        yield from cluster.node(1).mem.write_i64(addr, 5)

    task = cluster.spawn_system(writer(), "w")
    cluster.run()
    assert task.error is None
    faults = [
        rec for rec in stream
        if rec["category"] == "svm.write_fault" and rec["fields"]["node"] == 1
    ]
    assert len(faults) == 1
    assert faults[0]["time"] > 0
    assert cluster.fabric.stats.messages > 0
