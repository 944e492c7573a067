"""One run path for the paper's programs: specify, run, batch.

"The speedup of a program is the ratio of the execution time of the
program on a single processor to that on the shared virtual memory
system. ... all the programs in the experiments partition their
problems by creating a certain number of processes according to the
number of processors used."  So :func:`run_app` runs the *same
workload* on a fresh p-node cluster with p worker processes and checks
its output against the sequential golden; a speedup is
``T(1) / T(p)`` in simulated time.

- a :class:`Job` is a **picklable spec** of one run (app name +
  constructor kwargs + cluster config), not a closure — a worker
  process rebuilds the app from the registry, so parent and worker run
  byte-identical simulations;
- :func:`run_jobs` runs a batch of independent, deterministic jobs and
  **merges results by job index**, not completion order, so its output
  is what a serial loop would produce.  With one worker (or one job)
  nothing is forked and jobs run in-process — the serial fallback,
  and the reason ``workers=None`` is always safe to pass.  Parallelism
  buys wall-clock time, never different numbers;
- :func:`fork_map` is the one process pool, shared with the schedule
  explorer (`repro.analysis.explore`), and :func:`worker_count` the
  one worker count.

::

    jobs = [Job("jacobi", {"n": 256, "iters": 12}, nprocs=p) for p in (1, 2, 4, 8)]
    runs = run_jobs(jobs, workers=4)   # list[RunResult], in job order
    speedups = [runs[0].time_ns / r.time_ns for r in runs]
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence, TypeVar

from repro.api.ivy import Ivy
from repro.apps.common import AppProtocol
from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.matmul import MatmulApp
from repro.apps.pde3d import Pde3dApp
from repro.apps.sort import MergeSplitSortApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig, ConfigError
from repro.metrics.collect import Counters
from repro.obs import NULL_OBS, Observability

__all__ = [
    "APP_REGISTRY",
    "Job",
    "RunResult",
    "WorkerError",
    "app_constructor",
    "fork_map",
    "run_app",
    "run_jobs",
    "worker_count",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: App name -> constructor ``(nprocs, **kwargs)``.  The registry is what
#: makes jobs picklable: a spec ships the *name*, the worker looks the
#: class up in its own interpreter.
APP_REGISTRY: dict[str, Callable[..., Any]] = {
    "dotprod": DotProductApp,
    "jacobi": JacobiApp,
    "matmul": MatmulApp,
    "pde3d": Pde3dApp,
    "sort": MergeSplitSortApp,
    "tsp": TspApp,
}


def app_constructor(name: str) -> Callable[..., Any]:
    """The constructor registered under ``name`` — for callers taking an
    app name from a user: an unknown one is a
    :class:`repro.config.ConfigError` listing the registered names and
    suggesting the closest."""
    ctor = APP_REGISTRY.get(name)
    if ctor is None:
        raise ConfigError.unknown("app", name, APP_REGISTRY)
    return ctor


@dataclass
class RunResult:
    """One program execution on one cluster size."""

    nprocs: int
    time_ns: int
    counters: Counters
    #: Flat medium counters (``FabricStats.snapshot()``, the same keys
    #: on every backend).
    fabric_stats: dict[str, int]
    result: Any = None
    #: Simulator events executed (the deterministic work measure that
    #: ``repro.exps.scale`` turns into events per simulated second).
    events_executed: int = 0
    #: The run's observability handle (spans, instruments, profiler,
    #: timeline) as ``config.obs`` set it up; NULL_OBS when off.
    obs: Observability = NULL_OBS


def run_app(
    app_factory: Callable[[int], AppProtocol],
    nprocs: int,
    config: ClusterConfig | None = None,
) -> RunResult:
    """Run one app instance on a fresh ``nprocs``-node cluster and check
    its output against the sequential golden.  With ``config.obs`` set,
    the result carries the run's observability handle."""
    cluster_config = (config or ClusterConfig()).replace(nodes=nprocs)
    app = app_factory(nprocs)
    ivy = Ivy(cluster_config)
    result = ivy.run(app.main)
    app.check(result)
    if ivy.obs:
        # The run is over: unbinding the simulator's clock leaves a
        # record that pickles back from a run_jobs worker.
        ivy.obs.bind_clock(None)
    return RunResult(
        nprocs=nprocs,
        time_ns=ivy.time_ns,
        counters=ivy.cluster.total_counters(),
        fabric_stats=ivy.cluster.fabric.stats.snapshot(),
        result=result,
        events_executed=ivy.cluster.sim.events_executed,
        obs=ivy.obs,
    )


@dataclass(frozen=True)
class Job:
    """One independent simulation, as a picklable spec.

    ``app`` names an :data:`APP_REGISTRY` entry; ``app_args`` are the
    constructor kwargs *besides* ``nprocs`` (which :func:`run_app`
    injects).  ``key`` is an opaque caller label carried through to the
    result merge (e.g. ``("dot-product", 4)`` in a Figure 5 sweep).
    """

    app: str
    app_args: dict[str, Any] = field(default_factory=dict)
    nprocs: int = 1
    config: ClusterConfig | None = None
    key: Any = None

    def factory(self) -> Callable[[int], Any]:
        """The ``nprocs -> app`` factory :func:`run_app` expects; an
        unknown app is a :class:`repro.config.ConfigError`."""
        ctor = app_constructor(self.app)
        args = self.app_args
        return lambda p: ctor(p, **args)

    def run(self) -> RunResult:
        """Run this job in the current process (see :func:`run_app`)."""
        return run_app(self.factory(), self.nprocs, config=self.config)


def worker_count(requested: int | None, items: int, name: str = "workers") -> int:
    """How many processes :func:`fork_map` forks for ``items`` items:
    ``requested`` when given, else ``REPRO_WORKERS``, else the CPUs this
    process may run on; never more than there are items, and one where
    forking is not possible or not safe — no ``os.fork``; a daemonic
    process, which may not have children (only ``multiprocessing`` makes
    those: a process that never imported it is not one); a process with
    other threads, whose locks a fork would copy in whatever state they
    are in.  A ``requested`` count (reported as ``name``) or a
    ``REPRO_WORKERS`` that is not an integer >= 1 is a
    :class:`repro.config.ConfigError`, safe to fork or not."""
    if requested is not None:
        if requested < 1:
            raise ConfigError(name, requested, ("an integer >= 1",))
        count = requested
    elif env := os.environ.get("REPRO_WORKERS"):
        if not (env.isascii() and env.isdigit() and int(env) >= 1):
            raise ConfigError("REPRO_WORKERS", env, ("an integer >= 1",))
        count = int(env)
    else:
        try:
            count = len(os.sched_getaffinity(0))
        except AttributeError:  # not every platform has affinity masks
            count = os.cpu_count() or 1
    mp = sys.modules.get("multiprocessing")
    if (
        not hasattr(os, "fork")
        or (mp and mp.current_process().daemon)
        or threading.active_count() > 1
    ):
        return 1
    return max(1, min(count, items))


class WorkerError(RuntimeError):
    """A forked :func:`fork_map` worker raised or died.  The message
    names the item it held and the worker's exception or exit status;
    the other workers have been stopped and reaped by the time it
    propagates."""


def _serve(
    conn: Any, parent_ends: Sequence[Any], fn: Callable[[_T], Any], items: Sequence[_T]
) -> None:
    """A worker's life: compute ``fn(items[i])`` for every index the
    parent sends, until it sends None.  An exception goes back as text;
    anything worse ends the process, which the parent sees as EOF."""
    # The terminal's Ctrl-C reaches every process of the group: the
    # parent handles it and stops the workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in parent_ends:  # inherited; held open here they would hide
        end.close()  # the parent's death from every worker
    try:
        for index in iter(conn.recv, None):
            try:
                reply = (True, fn(items[index]))
            except Exception as exc:
                reply = (
                    False,
                    f"raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}",
                )
            conn.send(reply)
    except (EOFError, OSError):
        pass  # the parent is gone (killed: it stops its workers otherwise)


def fork_map(fn: Callable[[_T], _R], items: Sequence[_T], workers: int) -> Iterator[_R]:
    """Yield ``fn(item)`` for every item, in item order.

    With fewer than two ``workers`` that is ``map``: in-process, each
    result computed when it is asked for.  Otherwise that many forked
    workers take the items in order, one at a time each, and results
    are yielded as soon as every earlier one has been — so what the
    consumer sees never depends on which worker finished first, and a
    consumer that stops early (``close()`` the iterator) wastes at most
    what was in flight.  Workers are forked, so ``fn`` and the items
    reach them without pickling (closures, whatever a test
    monkeypatched); only results travel back.  Workers live for one
    call: whether the iterator is exhausted, closed or interrupted, or
    a worker fails (:class:`WorkerError`), every one is terminated and
    reaped before control returns.
    """
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context("fork")
    owner = os.getpid()
    procs: dict[Any, Any] = {}  # parent's pipe end -> worker process
    held: dict[Any, int] = {}  # pipe end -> index its worker is computing
    unsent = iter(range(len(items)))

    def hand(conn: Any) -> None:
        index = next(unsent, None)
        if index is not None:
            held[conn] = index
        conn.send(index)

    done: dict[int, _R] = {}
    try:
        for _ in range(workers):
            ours, theirs = ctx.Pipe()
            proc = ctx.Process(
                target=_serve, args=(theirs, [*procs, ours], fn, items), daemon=True
            )
            proc.start()
            theirs.close()  # so a dead worker reads as EOF on ours
            procs[ours] = proc
            hand(ours)
        for due in range(len(items)):
            while due not in done:
                for conn in wait(list(held)):
                    index = held.pop(conn)
                    try:
                        ok, value = conn.recv()
                    except (EOFError, OSError):
                        procs[conn].join()
                        ok, value = False, f"exited with status {procs[conn].exitcode}"
                    if not ok:
                        raise WorkerError(f"worker on item {index} ({items[index]!r}) {value}")
                    done[index] = value
                    hand(conn)
            yield done.pop(due)
    finally:
        # An iterator abandoned half-way is finalized whenever the
        # collector finds it — which may be in a worker forked by a later
        # call, where these are somebody else's children.
        if os.getpid() == owner:
            for proc in procs.values():
                proc.terminate()
            for conn, proc in procs.items():
                proc.join()
                proc.close()
                conn.close()


def run_jobs(jobs: Sequence[Job], workers: int | None = None) -> list[RunResult]:
    """Run every job; return results **in job order**, on
    :func:`worker_count` forked processes.  With one (one CPU, one job,
    ``workers=1``, or forking unsafe here) this is a plain serial loop
    in the current process — no fork, no pickling, bit-identical to
    calling :meth:`Job.run` yourself."""
    jobs = list(jobs)
    return list(fork_map(Job.run, jobs, worker_count(workers, len(jobs))))
