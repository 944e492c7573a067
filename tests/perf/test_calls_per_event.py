"""Call-count gate on the per-event path of the kernel and the scheduler.

Host time is too noisy to gate in a test; the number of Python calls
is exact.  Plain (non-generator) functions only: a generator's resume
is a ``call`` profile event too, and how many of those a frame sees
depends on the interpreter version, while plain calls count the same
on CPython 3.10 to 3.12."""

import inspect
import os
import sys

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.config import ClusterConfig

LAYERS = tuple(os.sep + os.path.join("repro", pkg) + os.sep for pkg in ("sim", "proc"))


def _plain_calls_per_event() -> float:
    app = DotProductApp(2, seed=7)
    ivy = Ivy(ClusterConfig(nodes=2))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (
            event == "call"
            and not code.co_flags & inspect.CO_GENERATOR
            and any(layer in code.co_filename for layer in LAYERS)
        ):
            calls += 1

    sys.setprofile(count)
    try:
        app.check(ivy.run(app.main))
    finally:
        sys.setprofile(None)
    return calls / ivy.cluster.sim.events_executed


def test_kernel_and_scheduler_calls_per_event():
    """An event calls the code it wakes: no resume wrapper between the
    kernel and a task, no ``Compute`` built per constant charge.  An
    unobserved p=2 dot product makes 5.44 such calls per event (6.61
    with the wrappers and per-use charges)."""
    assert _plain_calls_per_event() <= 5.5


def _entered(fn, *modules):
    """The plain functions and methods of ``modules`` that ``fn()``
    entered, by qualified name, with how often."""
    from tests.net.test_fabric import _frames_entered

    return _frames_entered(fn, *modules)[0]


def test_an_observed_read_fault_pays_one_call_per_record():
    """Exact call gate for observation: with spans, a logbucket timeline
    and every store on, one remote read fault makes three spans (fault,
    rpc, serve), three instrument samples, one gauge, two profiler
    intervals and two link bookings.  Each span is opened by the tracer's
    own ``span_begin`` and closed by one ``Observability.span_end``; a
    sample's log bucket is computed once for the run's histogram and its
    window's; the span-name caches and the clock enter no frame.  (With
    a facade over each store and ``split``, ``_key``, ``_window``,
    ``_now`` and ``span_kind`` per record, the same fault entered 86.)"""
    import repro.metrics.collect
    import repro.metrics.hist
    import repro.obs
    import repro.obs.profiler
    import repro.obs.span
    import repro.obs.timeline
    from repro.config import SECOND, ObsConfig

    from tests.svm.conftest import make_cluster, run_task

    cluster = make_cluster(
        nodes=2, obs=ObsConfig(timeline_window_ns=SECOND, hist_backend="logbucket")
    )
    address = cluster.config.svm.shared_base
    page_size = cluster.config.svm.page_size

    def read(at):
        return (yield from cluster.node(1).mem.read_i64(at))

    run_task(cluster, read(address))  # instruments and name caches exist
    entered = _entered(
        lambda: run_task(cluster, read(address + page_size)),
        repro.obs, repro.obs.span, repro.obs.timeline, repro.obs.profiler,
        repro.metrics.hist, repro.metrics.collect,
    )
    assert cluster.node(1).counters["read_faults"] == 2
    assert not inspect.isfunction(cluster.sim.clock())  # a stamp is no frame
    assert entered == {
        "SpanTracer.span_begin": 3, "Span.__init__": 3,
        "Observability.span_end": 3, "Timeline.span": 3,
        "SimProfiler.interval": 2,
        "Observability.observe": 3, "Timeline.observe": 6,
        "LogBucketHistogram.observe": 9,
        "Timeline.link_busy": 2, "Timeline._credit": 5,
        "Observability.gauge": 1, "Metrics.gauge": 1, "Gauge.set": 1,
        "Timeline.gauge": 1,
        "Counters.inc": 4,
    }


def test_an_oracle_event_asks_each_hook_once_per_node_that_keeps_it():
    """Exact call gate for the checker: one oracle event (a completed
    read fault, re-published on a 4-node dynamic cluster at quiescence)
    runs every rule with one shadow lookup, and asks the svm layer only
    for each node's probOwner hop.  The dynamic manager keeps no manager
    owner table, so no node is asked for one, and a hop reads the
    protocol's stored entry map.  (Asking every node for both hooks, a
    hop through ``PageTable.raw_entries`` and a second shadow lookup
    entered nine frames more.)"""
    import repro.analysis.oracle
    import repro.svm.dynamic
    import repro.svm.page
    import repro.svm.protocol

    from tests.svm.conftest import make_cluster, run_task

    cluster = make_cluster(nodes=4, checker=True)
    address = cluster.config.svm.shared_base

    def read():
        return (yield from cluster.node(1).mem.read_i64(address))

    run_task(cluster, read())
    oracle = cluster.oracle
    page = cluster.layout.page_of(address)
    time, category, fields = oracle.histories[page][-1]
    assert category == "svm.read_fault"
    entered = _entered(
        lambda: oracle.on_event(category, time, fields),
        repro.analysis.oracle, repro.svm.protocol, repro.svm.dynamic, repro.svm.page,
    )
    assert entered == {
        "CoherenceOracle.on_event": 1, "ShadowMachine.apply": 1,
        "ShadowMachine.shadow": 1, "ShadowMachine._complete": 1,
        "CoherenceOracle._check_page": 1,
        "CoherenceOracle._check_manager_tables": 1,
        "CoherenceOracle._check_probowner_chains": 1, "_all_chains_reach": 1,
        "CoherenceOracle._check_data_coherence": 1,
        "DynamicDistributedProtocol.probable_owner_hop": 4,
    }
