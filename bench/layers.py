"""Layer drivers: one layer at a time, built through public constructors.

Each driver is a function ``run(n) -> seconds`` that performs ``n``
operations of one layer and returns the host time of the timed region
only (object construction is outside it).  :func:`measure_driver` sizes
``n`` so a batch lasts ``batch_s`` and reports the median per-operation
time over ``batches`` batches.  ``python -m bench --layers`` uses seven
batches of 0.2 s; a ``--trace 1`` run splits its ``--seconds`` budget
evenly over the drivers.

The numbers name a layer's cost in isolation.  Which end-to-end metric
each should move, on which workload, is the table in ``README.md``.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, Generator

import numpy as np

from repro.api.cluster import Cluster
from repro.api.ivy import Ivy
from repro.apps.common import alloc_barrier, alloc_done_ec, spawn_workers, wait_done
from repro.config import SECOND, ClusterConfig
from repro.machine.disk import Disk
from repro.machine.memory import PhysicalMemory
from repro.machine.pager import Pager
from repro.metrics.collect import Counters
from repro.metrics.hist import make_histogram
from repro.net.fabric import make_fabric
from repro.net.packet import BROADCAST
from repro.net.pool import MessagePool, PagePool
from repro.net.remoteop import RemoteOp
from repro.net.transport import Transport
from repro.obs import Observability
from repro.sim.kernel import make_simulator
from repro.sim.process import SimDriver, YieldCpu
from repro.sim.rng import RngStreams
from repro.sync.eventcount import EC_RECORD_BYTES

from bench.metrics import by_name

__all__ = ["DRIVERS", "measure_driver", "run_layers"]

Driver = Callable[[int], float]
perf = time.perf_counter

_SWITCHED = (
    ClusterConfig().with_svm(page_size=8192).with_fabric(backend="switched")
    .replace(retransmit_timeout=30 * SECOND)
)


def _timed_run(sim: Any, **kw: Any) -> float:
    started = perf()
    sim.run(**kw)
    return perf() - started


# ----------------------------------------------------------------------
# sim


def _chains(sim: Any, nchains: int) -> None:
    """``nchains`` self-rescheduling events with distinct non-zero
    delays, so every dispatch goes through the timer queue."""
    def tick(delay: int) -> None:
        sim.schedule_nocancel(delay, tick, delay)

    for i in range(nchains):
        sim.schedule_nocancel(1000 + i, tick, 1000 + i)


def dispatch_q16(n: int) -> float:
    sim = make_simulator()
    _chains(sim, 16)
    return _timed_run(sim, max_events=n)


def dispatch_q4096(n: int) -> float:
    sim = make_simulator()
    for i in range(4096):  # parked retransmit timers that never fire
        sim.schedule(30 * SECOND + i, lambda: None)
    _chains(sim, 16)
    return _timed_run(sim, max_events=n)


def arm_cancel(n: int) -> float:
    sim = make_simulator()
    started = perf()
    for _ in range(n):
        sim.schedule(500_000_000, _noop).cancel()
    sim.run()  # drain the tombstones
    return perf() - started


def _noop(*_args: Any) -> None:
    pass


def task_switch(n: int) -> float:
    sim = make_simulator()

    def body() -> Generator:
        for _ in range(n):
            yield YieldCpu()

    SimDriver(sim).spawn(body(), "switcher")
    return _timed_run(sim)


# ----------------------------------------------------------------------
# net


def pool_msg_cycle(n: int) -> float:
    pool = MessagePool()
    started = perf()
    for i in range(n):
        pool.release(pool.acquire(0, 1, "req", "bench.op", 0, i, None, 64))
    return perf() - started


def pool_page_cycle(n: int) -> float:
    pool = PagePool()
    frame = np.zeros(1024, dtype=np.uint8)
    started = perf()
    for _ in range(n):
        pool.give(pool.copy_of(frame))
    return perf() - started


def _fabric(config: ClusterConfig) -> tuple[Any, Any]:
    sim = make_simulator()
    fabric = make_fabric(sim, config, RngStreams(config.seed))
    for node in range(config.nodes):
        fabric.attach(node, _noop)
    return sim, fabric


def _send_driver(config: ClusterConfig, dst: int) -> Driver:
    def run(n: int) -> float:
        sim, fabric = _fabric(config)
        pool = fabric.pool
        started = perf()
        for i in range(n):
            msg = pool.acquire(0, dst, "bcast" if dst == BROADCAST else "req", "bench.op", 0, i, None, 1088)
            fabric.send(msg)
            pool.release(msg)
            if i % 64 == 63:  # deliver as we go: keep the queue app-sized
                sim.run()
        sim.run()
        return perf() - started

    return run


def _rtt_driver(loss_rate: float) -> Driver:
    config = ClusterConfig(nodes=2).with_ring(loss_rate=loss_rate)

    def run(n: int) -> float:
        sim = make_simulator()
        driver = SimDriver(sim)
        fabric = make_fabric(sim, config, RngStreams(config.seed))
        remotes = [
            RemoteOp(Transport(sim, driver, fabric, node, config), driver, config)
            for node in range(2)
        ]

        def echo(origin: int, payload: Any) -> Generator:
            return payload
            yield  # a handler is a generator

        remotes[1].register("bench.echo", echo)

        def client() -> Generator:
            for i in range(n):
                yield from remotes[0].request(1, "bench.echo", i)

        driver.spawn(client(), "client")
        return _timed_run(sim)

    return run


# ----------------------------------------------------------------------
# svm


def _fault_chunks(n: int, config: ClusterConfig, prepare: Callable, fault: Callable) -> float:
    """Time ``n`` faults, a fresh cluster per chunk of distinct pages;
    ``prepare`` (untimed) runs to quiescence before ``fault`` (timed)."""
    elapsed = 0.0
    done = 0
    while done < n:
        chunk = min(n - done, 2048)
        cluster = Cluster(config)
        addrs = [cluster.layout.page_base(page) for page in range(chunk)]
        for gen in prepare(cluster, addrs):
            cluster.spawn_system(gen)
        cluster.run()
        cluster.spawn_system(fault(cluster, addrs))
        elapsed += _timed_run(cluster.sim)
        done += chunk
    return elapsed


def read_fault(n: int) -> float:
    def prepare(cluster: Cluster, addrs: list[int]) -> list[Generator]:
        def own() -> Generator:
            for addr in addrs:
                yield from cluster.node(0).mem.write_i64(addr, 1)
        return [own()]

    def fault(cluster: Cluster, addrs: list[int]) -> Generator:
        for addr in addrs:
            yield from cluster.node(1).mem.read_i64(addr)

    return _fault_chunks(n, ClusterConfig(nodes=2), prepare, fault)


def write_fault_inval(n: int) -> float:
    def prepare(cluster: Cluster, addrs: list[int]) -> list[Generator]:
        def copy(node: int) -> Generator:
            for addr in addrs:
                yield from cluster.node(node).mem.read_i64(addr)
        return [copy(node) for node in range(1, 8)]

    def fault(cluster: Cluster, addrs: list[int]) -> Generator:
        for addr in addrs:  # owner upgrades: invalidates the 7 read copies
            yield from cluster.node(0).mem.write_i64(addr, 2)

    return _fault_chunks(n, ClusterConfig(nodes=8), prepare, fault)


def _resident_cluster(pages: int) -> tuple[Cluster, int]:
    cluster = Cluster(ClusterConfig(nodes=1))
    base = cluster.layout.page_base(0)
    size = cluster.config.svm.page_size

    def fill() -> Generator:
        yield from cluster.node(0).mem.write_array(base, np.zeros(pages * size // 8))

    cluster.spawn_system(fill())
    cluster.run()
    return cluster, base


def nofault_page(n: int) -> float:
    pages = 256
    cluster, base = _resident_cluster(pages)
    mem = cluster.node(0).mem
    count = pages * cluster.config.svm.page_size // 8

    def sweep() -> Generator:
        for _ in range(max(1, n // pages)):
            yield from mem.fetch_array(base, np.float64, count)

    cluster.spawn_system(sweep())
    return _timed_run(cluster.sim) * n / (max(1, n // pages) * pages)


def nofault_f64(n: int) -> float:
    cluster, base = _resident_cluster(4)
    mem = cluster.node(0).mem

    def reads() -> Generator:
        for i in range(n):
            yield from mem.read_f64(base + 8 * (i & 255))

    cluster.spawn_system(reads())
    return _timed_run(cluster.sim)


# ----------------------------------------------------------------------
# machine


def _machine(frames: int) -> tuple[Any, PhysicalMemory, Pager]:
    config = ClusterConfig()
    counters = Counters()
    memory = PhysicalMemory(1024, frames, "random", RngStreams(config.seed).stream("pager-0"))
    pager = Pager(memory, Disk(config.disk, 1024, counters), counters)

    def evict(page: int) -> Generator:
        yield from pager.page_out(page)
        return True

    pager.set_eviction_policy(evict)
    for page in range(frames):
        memory.install(page)
    return make_simulator(), memory, pager


def evict_cycle(n: int) -> float:
    sim, memory, pager = _machine(64)

    def churn() -> Generator:
        for page in range(64, 64 + n):  # the pool is full: each needs a victim
            yield from pager.ensure_frame(page)
            memory.install(page)

    SimDriver(sim).spawn(churn(), "churn")
    return _timed_run(sim)


def touch(n: int) -> float:
    _sim, memory, _pager = _machine(256)
    started = perf()
    for i in range(n):
        memory.touch(i & 255)
    return perf() - started


# ----------------------------------------------------------------------
# sync, proc, alloc (through the Ivy facade: they need processes)


def _ivy_run(config: ClusterConfig, main: Callable) -> float:
    ivy = Ivy(config)
    started = perf()
    ivy.run(main)
    return perf() - started


def barrier_n64(n: int) -> float:
    parties = 64

    def worker(ctx: Any, _k: int, barrier: Any) -> Generator:
        for _ in range(n):
            yield from barrier.arrive(ctx)

    def main(ctx: Any) -> Generator:
        barrier = yield from alloc_barrier(ctx, parties)
        done = yield from alloc_done_ec(ctx)
        yield from spawn_workers(ctx, worker, parties, barrier, done_ec=done)
        yield from wait_done(ctx, done, parties)

    return _ivy_run(_SWITCHED.replace(nodes=parties), main)


def eventcount(n: int) -> float:
    """Ping-pong between two nodes; one operation is one hand-off (an
    ``ec_advance`` that wakes the other node's blocked ``ec_wait``)."""
    rounds = max(1, n // 2)

    def player(ctx: Any, k: int, ping: int, pong: int) -> Generator:
        for i in range(1, rounds + 1):
            if k == 0:
                yield from ctx.ec_advance(ping)
                yield from ctx.ec_wait(pong, i)
            else:
                yield from ctx.ec_wait(ping, i)
                yield from ctx.ec_advance(pong)

    def main(ctx: Any) -> Generator:
        ping = yield from alloc_done_ec(ctx)
        pong = yield from alloc_done_ec(ctx)
        done = yield from alloc_done_ec(ctx)
        yield from spawn_workers(ctx, player, 2, ping, pong, done_ec=done)
        yield from wait_done(ctx, done, 2)

    return _ivy_run(ClusterConfig(nodes=2), main) * n / (2 * rounds)


def spawn(n: int) -> float:
    def child(ctx: Any, done: int) -> Generator:
        yield from ctx.ec_advance(done)

    def main(ctx: Any) -> Generator:
        done = yield from alloc_done_ec(ctx)
        for i in range(n):
            yield from ctx.spawn(child, done, on=i % ctx.nnodes)
        yield from wait_done(ctx, done, n)

    return _ivy_run(ClusterConfig(nodes=4), main)


def malloc_free(n: int) -> float:
    def main(ctx: Any) -> Generator:
        for _ in range(n):
            addr = yield from ctx.malloc(EC_RECORD_BYTES)
            yield from ctx.free(addr)

    return _ivy_run(ClusterConfig(nodes=2), main)


def _build_driver(config: ClusterConfig) -> Driver:
    def run(n: int) -> float:
        started = perf()
        for _ in range(n):
            Ivy(config)
        return perf() - started

    return run


# ----------------------------------------------------------------------
# obs, metrics


def obs_span(n: int) -> float:
    obs = Observability()
    obs.bind_clock(lambda: 0)
    started = perf()
    for _ in range(n):
        obs.span_end(obs.span_begin("fault:read", node=0))
    return perf() - started


def hist_observe(n: int) -> float:
    hist = make_histogram("bench", "logbucket")
    started = perf()
    for i in range(n):
        hist.observe(1000 + (i & 1023))
    return perf() - started


#: metric name -> driver; the name's unit (``BENCHMARK.json``) scales the result.
DRIVERS: dict[str, Driver] = {
    "sim.dispatch_ns.q16": dispatch_q16,
    "sim.dispatch_ns.q4096": dispatch_q4096,
    "sim.arm_cancel_ns": arm_cancel,
    "sim.task_switch_ns": task_switch,
    "net.pool.msg_cycle_ns": pool_msg_cycle,
    "net.pool.page_cycle_ns": pool_page_cycle,
    "net.fabric.ring.send_ns": _send_driver(ClusterConfig(nodes=8), 1),
    "net.fabric.switched.send_ns": _send_driver(_SWITCHED.replace(nodes=8), 1),
    "net.fabric.switched.bcast_us.n256": _send_driver(_SWITCHED.replace(nodes=256), BROADCAST),
    "net.transport.rtt_us": _rtt_driver(0.0),
    "net.transport.rtt_lossy_us": _rtt_driver(0.2),
    "svm.read_fault_us": read_fault,
    "svm.write_fault_inval_us": write_fault_inval,
    "svm.nofault_page_ns": nofault_page,
    "svm.nofault_f64_ns": nofault_f64,
    "machine.evict_cycle_us": evict_cycle,
    "machine.touch_ns": touch,
    "sync.barrier_us.n64": barrier_n64,
    "sync.eventcount_us": eventcount,
    "proc.spawn_us": spawn,
    "alloc.malloc_free_us": malloc_free,
    "api.cluster_build_ms.n8": _build_driver(ClusterConfig(nodes=8)),
    "api.cluster_build_ms.n256": _build_driver(_SWITCHED.replace(nodes=256)),
    "obs.span_ns": obs_span,
    "metrics.hist_observe_ns": hist_observe,
}


_PER_SECOND = {"ns": 1e9, "us": 1e6, "ms": 1e3}


def measure_driver(run: Driver, batch_s: float, batches: int) -> float:
    """Median seconds per operation over ``batches`` batches of about
    ``batch_s`` each (the first, sizing batch is discarded)."""
    n = 1
    elapsed = run(n)
    while elapsed < batch_s / 8 and n < 1 << 24:
        n *= 4
        elapsed = run(n)
    n = max(1, int(n * batch_s / elapsed))
    return statistics.median(run(n) / n for _ in range(batches))


def run_layers(batch_s: float = 0.2, batches: int = 7,
               budget_s: float | None = None) -> dict[str, float]:
    """Every driver's metric, in the unit its name carries.  With
    ``budget_s`` the batch length is cut so all drivers fit in it."""
    if budget_s is not None:
        # Sizing costs about one more batch per driver.
        batch_s = min(batch_s, budget_s / (len(DRIVERS) * (batches + 1)))
    units = by_name()
    return {
        name: measure_driver(run, batch_s, batches) * _PER_SECOND[units[name].unit]
        for name, run in DRIVERS.items()
    }
