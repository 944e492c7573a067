"""Bad config values are refused up front with a structured
:class:`~repro.config.ConfigError`, never a crash inside a task."""

import pytest

from repro.api.cluster import Cluster
from repro.api.ivy import Ivy
from repro.config import ClusterConfig, ConfigError, ObsConfig
from repro.exps.parallel import resolve_workers


@pytest.mark.parametrize("manager_node", [9, -1])
def test_manager_node_outside_the_cluster_is_refused(manager_node):
    # 9 used to die sending to a station that does not exist, -1 with
    # an allocation request reaching a non-manager node.
    with pytest.raises(ConfigError) as excinfo:
        Cluster(ClusterConfig(nodes=4).with_svm(manager_node=manager_node))
    assert excinfo.value.field == "svm.manager_node"
    assert excinfo.value.value == manager_node


@pytest.mark.parametrize(
    "field,value,config",
    [
        ("nodes", 0, ClusterConfig(nodes=0)),
        ("obs.timeline_window_ns", -5, ClusterConfig(nodes=2, obs=ObsConfig(timeline_window_ns=-5))),
        ("obs.sample_every", 0, ClusterConfig(nodes=2, obs=ObsConfig(sample_every=0))),
    ],
    ids=["nodes", "obs.timeline_window_ns", "obs.sample_every"],
)
def test_out_of_range_count_is_refused(field, value, config):
    # nodes=0 and sample_every=0 used to be bare ValueErrors from inside
    # Cluster and SpanTracer; a negative window silently ran without a
    # timeline.
    with pytest.raises(ConfigError) as excinfo:
        Cluster(config)
    assert excinfo.value.field == field
    assert excinfo.value.value == value


def test_zero_multicast_fanout_is_refused():
    # Used to be a ZeroDivisionError on the first broadcast.
    config = ClusterConfig(nodes=4).with_fabric(backend="switched", multicast_fanout=0)
    with pytest.raises(ConfigError) as excinfo:
        Cluster(config)
    assert excinfo.value.field == "fabric.multicast_fanout"
    assert excinfo.value.value == 0


@pytest.mark.parametrize(
    "field,config,suggestion",
    [
        ("memory.replacement", ClusterConfig(nodes=2).with_memory(replacement="rnadom"), "random"),
        ("sched.allocator", ClusterConfig(nodes=2).with_sched(allocator="twolevle"), "twolevel"),
        ("obs.hist_backend", ClusterConfig(nodes=2, obs=ObsConfig(hist_backend="exatc")), "exact"),
    ],
    ids=["memory.replacement", "sched.allocator", "obs.hist_backend"],
)
def test_unknown_enumerated_value_suggests_the_closest(field, config, suggestion):
    with pytest.raises(ConfigError) as excinfo:
        Ivy(config)
    assert excinfo.value.field == field
    assert excinfo.value.suggestion == suggestion
    assert f"did you mean {suggestion!r}?" in str(excinfo.value)


def _refusal(build):
    with pytest.raises(ConfigError) as excinfo:
        build()
    return excinfo.value


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Cluster(ClusterConfig(nodes=0)), "nodes must be an integer >= 1, got 0"),
        (
            lambda: Cluster(ClusterConfig(nodes=2, obs=ObsConfig(timeline_window_ns=-5))),
            "obs.timeline_window_ns must be an integer >= 0, got -5",
        ),
        (
            lambda: Cluster(ClusterConfig(nodes=2, obs=ObsConfig(sample_every=0))),
            "obs.sample_every must be an integer >= 1, got 0",
        ),
        (
            lambda: Cluster(ClusterConfig(nodes=4).with_svm(manager_node=9)),
            "svm.manager_node must be an integer in 0..N-1, got 9",
        ),
        (
            lambda: Cluster(
                ClusterConfig(nodes=4).with_fabric(backend="switched", multicast_fanout=0)
            ),
            "fabric.multicast_fanout must be an integer >= 1, got 0",
        ),
        (lambda: resolve_workers(0, njobs=4), "workers must be an integer >= 1, got 0"),
    ],
    ids=["nodes", "obs.timeline_window_ns", "obs.sample_every", "svm.manager_node",
         "fabric.multicast_fanout", "workers"],
)
def test_a_range_violation_reads_as_a_range(build, message):
    error = _refusal(build)
    assert str(error) == message
    assert error.field == message.split()[0]
    assert error.known and error.suggestion is None


def test_a_bad_repro_workers_reads_as_a_range(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "two")
    error = _refusal(lambda: resolve_workers(None, njobs=4))
    assert str(error) == "REPRO_WORKERS must be an integer >= 1, got 'two'"
    assert (error.field, error.value, error.known) == ("REPRO_WORKERS", "two", ("an integer >= 1",))


def test_an_unknown_name_still_reads_as_unknown():
    error = _refusal(lambda: Ivy(ClusterConfig(nodes=2).with_sched(allocator="twolevle")))
    assert str(error) == (
        "unknown sched.allocator 'twolevle' (known: central, twolevel); "
        "did you mean 'twolevel'?"
    )
