"""Object lifetime: a finished system is freed by reference counting.

``Cluster`` and ``Ivy`` are acyclic roots: nothing they own refers back
to them, and once a cluster is unreachable a finalizer breaks the
upcall cycles below it.  So dropping the last reference frees page
frames, disk images and transports at once, with the cycle collector
switched off.  These tests run with ``gc.disable()``."""

import gc
import weakref

import pytest

import repro.api.ivy as ivy_module
from repro.api.cluster import Cluster
from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.config import ClusterConfig
from repro.exps.parallel import run_app

NODES = 3


@pytest.fixture(autouse=True)
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _watch(cluster: Cluster) -> dict[str, weakref.ref]:
    """Weak references to the cluster and the big things below it."""
    refs = {"cluster": weakref.ref(cluster), "pages": weakref.ref(cluster.fabric.pages)}
    for node in cluster.nodes:
        for part in ("memory", "disk", "transport"):
            refs[f"{part}{node.node_id}"] = weakref.ref(getattr(node, part))
    return refs


def _alive(refs: dict[str, weakref.ref]) -> list[str]:
    return [name for name, ref in refs.items() if ref() is not None]


def _run_dotprod(**config) -> tuple[Ivy, dict[str, weakref.ref]]:
    ivy = Ivy(ClusterConfig(nodes=NODES, **config))
    app = DotProductApp(NODES, n=4096, seed=7)
    app.check(ivy.run(app.main))
    return ivy, _watch(ivy.cluster)


@pytest.mark.parametrize(
    "config", [{}, {"checker": True}, {"obs": True}], ids=["plain", "checker", "obs"]
)
def test_dropped_ivy_is_freed_at_once(config):
    """A finished process drops its task's back-reference and teardown
    empties the schedulers' registries, so a dropped run leaves the
    cycle collector nothing at all: no cluster, frames, disks, page
    tables, transports, messages, schedulers, tasks or PCBs."""
    _run_dotprod(**config)  # first-use imports leave garbage of their own
    gc.collect()
    ivy, refs = _run_dotprod(**config)
    assert ivy.time_ns > 0
    del ivy
    assert _alive(refs) == []
    assert gc.collect() == 0


def test_dropped_cluster_driven_directly_is_freed_at_once():
    """A bare cluster running system tasks, as the svm tests drive one."""
    cluster = Cluster(ClusterConfig(nodes=NODES).with_svm(page_size=256))
    addr = cluster.config.svm.shared_base

    def writer(n):
        yield from cluster.node(n).mem.write_i64(addr + 8 * n, n + 1)

    tasks = [cluster.spawn_system(writer(n), f"w{n}") for n in range(NODES)]
    cluster.run()
    assert all(task.done and task.error is None for task in tasks)
    refs = _watch(cluster)
    del cluster, tasks
    assert _alive(refs) == []


def test_run_app_result_outlives_its_cluster(monkeypatch):
    """``run_app`` drops its system on return; the RunResult it hands
    back keeps counters and stats, not the cluster."""
    watched: list[dict[str, weakref.ref]] = []

    class Watched(Cluster):
        def __init__(self, config):
            super().__init__(config)
            watched.append(_watch(self))

    monkeypatch.setattr(ivy_module, "Cluster", Watched)
    result = run_app(lambda p: DotProductApp(p, n=4096, seed=7), NODES)
    assert result.events_executed > 0 and result.counters["read_faults"] > 0
    assert len(watched) == 1
    assert _alive(watched[0]) == []


def test_held_ivy_runs_events_after_its_run():
    """Teardown waits for the cluster to be unreachable: a held system
    keeps every upcall, so events scheduled after ``run`` still run."""
    ivy, refs = _run_dotprod()
    balancer = ivy.balancers[1]
    task = ivy.cluster.driver.spawn(balancer._ask(0), "ask")
    ivy.cluster.run()
    assert task.done and task.error is None
    assert ivy.node(1).counters["work_requests_rejected"] == 1
    assert _alive(refs) == list(refs)


def test_cluster_held_without_its_ivy_keeps_its_state():
    ivy, refs = _run_dotprod()
    cluster = ivy.cluster
    before = cluster.total_counters().snapshot()
    del ivy
    assert _alive(refs) == list(refs)
    assert cluster.total_counters().snapshot() == before
    del cluster
    assert _alive(refs) == []


def test_close_dismantles_once():
    cluster = Cluster(ClusterConfig(nodes=NODES))
    cluster.close()
    cluster.close()
    assert cluster.nodes == []


def test_violating_schedule_frees_its_cluster_at_once(monkeypatch):
    """A run the oracle stops keeps its exception in the oracle, the
    simulator and the failed task; the exception's frames must not keep
    the cluster alive once the run is classified."""
    from repro.analysis import explore

    watched: list[dict[str, weakref.ref]] = []
    build = explore._build_cluster

    def watched_build(scenario):
        cluster = build(scenario)
        watched.append(_watch(cluster))
        return cluster

    monkeypatch.setattr(explore, "_build_cluster", watched_build)
    scenario = explore.Scenario(
        "dynamic", 3, 1, "mutate-upgrade", 7, mutation="ghost-copyset"
    )
    result = explore.run_scenario(scenario)
    assert result.status == "violation"
    assert _alive(watched[0]) == []
