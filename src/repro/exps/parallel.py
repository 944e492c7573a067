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
  the pool is skipped and jobs run in-process — the serial fallback,
  and the reason ``workers=None`` is always safe to pass.  Parallelism
  buys wall-clock time, never different numbers.

::

    jobs = [Job("jacobi", {"n": 256, "iters": 12}, nprocs=p) for p in (1, 2, 4, 8)]
    runs = run_jobs(jobs, workers=4)   # list[RunResult], in job order
    speedups = [runs[0].time_ns / r.time_ns for r in runs]
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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
    "app_constructor",
    "resolve_workers",
    "run_app",
    "run_jobs",
]

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


def resolve_workers(workers: int | None, njobs: int) -> int:
    """Effective worker count: explicit > ``REPRO_WORKERS`` > cpu count,
    never more than there are jobs.  An explicit count or a
    ``REPRO_WORKERS`` that is not an integer >= 1 raises
    :class:`repro.config.ConfigError`."""
    if workers is not None and workers < 1:
        raise ConfigError("workers", workers, ("an integer >= 1",))
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if not env:
            workers = os.cpu_count() or 1
        elif env.isascii() and env.isdigit() and int(env) >= 1:
            workers = int(env)
        else:
            raise ConfigError("REPRO_WORKERS", env, ("an integer >= 1",))
    return max(1, min(workers, njobs))


def run_jobs(jobs: Sequence[Job], workers: int | None = None) -> list[RunResult]:
    """Run every job; return results **in job order**.

    With an effective worker count of 1 (single-core machine, one job,
    or ``workers=1``) this is a plain serial loop in the current
    process — no pool, no pickling, bit-identical to calling
    :meth:`Job.run` yourself.
    """
    jobs = list(jobs)
    nworkers = resolve_workers(workers, len(jobs))
    if nworkers <= 1:
        return [job.run() for job in jobs]

    import multiprocessing

    # Fork keeps the warm interpreter (cheap on Linux); spawn is the
    # portable fallback and works because Job specs are picklable.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(processes=nworkers) as pool:
        # Pool.map returns results positionally: completion order cannot
        # leak into the merge.  ``Job.run`` pickles by reference.
        return pool.map(Job.run, jobs)
