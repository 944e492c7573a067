"""Parallel experiment runner — fan independent simulations across processes.

Every experiment in this repo is a *batch of independent simulations*
(one per app × processor-count × config point).  Each simulation is
single-threaded and deterministic, so the batch is embarrassingly
parallel: the only thing parallelism may never change is the *results*.
This module guarantees that by construction:

- a :class:`Job` is a **picklable spec** (app name + constructor kwargs
  + cluster config), not a closure — the worker process rebuilds the app
  factory from the registry, so parent and worker run byte-identical
  simulations;
- results are **merged by job index**, not completion order: the output
  of :func:`run_jobs` is position-for-position what a serial loop would
  produce, regardless of which worker finished first;
- with one worker (or one job) the pool is skipped entirely and jobs run
  in-process — the serial fallback for single-core machines, and the
  reason ``workers=None`` is always safe to pass.

Simulated clocks are unaffected — parallelism here buys *wall-clock*
time on multi-core machines running sweeps (Figure 5 is |apps| × |procs|
independent runs), never different numbers.

::

    jobs = [Job("jacobi", {"n": 256, "iters": 12}, nprocs=p) for p in (1, 2, 4, 8)]
    results = run_jobs(jobs, workers=4)   # list[RunResult], in job order
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.matmul import MatmulApp
from repro.apps.pde3d import Pde3dApp
from repro.apps.sort import MergeSplitSortApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig, ConfigError
from repro.metrics.speedup import RunResult, run_app

__all__ = [
    "APP_REGISTRY",
    "Job",
    "app_constructor",
    "resolve_workers",
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


@dataclass(frozen=True)
class Job:
    """One independent simulation, as a picklable spec.

    ``app`` names an :data:`APP_REGISTRY` entry; ``app_args`` are the
    constructor kwargs *besides* ``nprocs`` (which the speedup harness
    injects).  ``key`` is an opaque caller label carried through to the
    result merge (e.g. ``("dot-product", 4)`` in a Figure 5 sweep).
    """

    app: str
    app_args: dict[str, Any] = field(default_factory=dict)
    nprocs: int = 1
    config: ClusterConfig | None = None
    check: bool = True
    key: Any = None

    def factory(self) -> Callable[[int], Any]:
        """The ``nprocs -> app`` factory the speedup harness expects."""
        ctor = APP_REGISTRY.get(self.app)
        if ctor is None:
            known = ", ".join(sorted(APP_REGISTRY))
            raise KeyError(f"unknown app {self.app!r} (registered: {known})")
        args = self.app_args
        return lambda p: ctor(p, **args)


def _execute(job: Job) -> RunResult:
    """Run one job (worker-process entry point; must stay module-level
    so the pool can pickle it by reference)."""
    return run_app(job.factory(), job.nprocs, config=job.config, check=job.check)


def resolve_workers(workers: int | None, njobs: int) -> int:
    """Effective worker count: explicit > ``REPRO_WORKERS`` > cpu count,
    never more than there are jobs.  A ``REPRO_WORKERS`` that is not an
    integer >= 1 raises :class:`repro.config.ConfigError`."""
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
    :func:`repro.metrics.speedup.run_app` yourself.
    """
    jobs = list(jobs)
    nworkers = resolve_workers(workers, len(jobs))
    if nworkers <= 1:
        return [_execute(job) for job in jobs]

    import multiprocessing

    # Fork keeps the warm interpreter (cheap on Linux); spawn is the
    # portable fallback and works because Job specs are picklable.
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    ctx = multiprocessing.get_context(method)
    with ctx.Pool(processes=nworkers) as pool:
        # Pool.map returns results positionally: completion order cannot
        # leak into the merge.
        return pool.map(_execute, jobs)
