"""Workload presets shared by the experiment drivers and benchmarks.

"Quick" presets keep the qualitative shapes (who wins, crossovers,
super-linearity) at a fraction of the simulation cost; "full" presets
are the calibrated headline configurations recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.config import ClusterConfig

__all__ = [
    "fig5_specs",
    "fig5_procs",
    "capacity_config",
    "pde_capacity",
    "sort_spec",
    "scale_fig5",
    "scale_fig4",
    "PAGE_BYTES",
    "SCALE_PAGE_BYTES",
    "SCALE_NODE_COUNTS",
]

PAGE_BYTES = 1024

#: Page size for the 64–256-node scale-out presets.  Two reasons it is
#: larger than the paper's 1 KB: (a) the eventcount record — and thus a
#: barrier's waiter table — must fit in one page (the paper's
#: single-page simplification), which caps barriers at 41 waiters on
#: 1 KB pages; 8 KB holds ~340, enough for a 256-node barrier.  (b) A
#: hundred-node machine moving megabytes wants fewer, larger transfers.
SCALE_PAGE_BYTES = 8192

#: The scale-out sweep's node counts (powers of two past the ring's
#: comfort zone).
SCALE_NODE_COUNTS = (64, 128, 256)

#: Figure 5 workloads as **picklable specs** — ``(registry app name,
#: constructor kwargs)`` per program, consumable by the parallel runner
#: (`repro.exps.parallel.Job`).
_FIG5_FULL: dict[str, tuple[str, dict[str, int]]] = {
    "linear eqn (jacobi)": ("jacobi", {"n": 512, "iters": 24}),
    "3-D PDE": ("pde3d", {"m": 48, "iters": 20}),
    "TSP": ("tsp", {"ncities": 13, "seed": 33}),
    "matrix multiply": ("matmul", {"n": 224}),
    "dot-product": ("dotprod", {"n": 65536}),
    "merge-split sort": ("sort", {"nrecords": 8192}),
}
_FIG5_QUICK: dict[str, tuple[str, dict[str, int]]] = {
    "linear eqn (jacobi)": ("jacobi", {"n": 256, "iters": 12}),
    "3-D PDE": ("pde3d", {"m": 20, "iters": 12}),
    "TSP": ("tsp", {"ncities": 12, "seed": 33}),
    "matrix multiply": ("matmul", {"n": 160}),
    "dot-product": ("dotprod", {"n": 32768}),
    "merge-split sort": ("sort", {"nrecords": 4096}),
}

def fig5_specs(full: bool = False) -> dict[str, tuple[str, dict[str, int]]]:
    """The Figure 5 suite as parallel-runner job specs."""
    return dict(_FIG5_FULL if full else _FIG5_QUICK)


def fig5_procs(full: bool = False) -> tuple[int, ...]:
    return (1, 2, 3, 4, 5, 6, 7, 8) if full else (1, 2, 4, 8)


def capacity_config(
    m: int, page_bytes: int = PAGE_BYTES, base: ClusterConfig | None = None
) -> ClusterConfig:
    """The Figure 4 / Table 1 memory regime for an ``m``-cubed PDE: each
    node's frames hold 1.8 of one solution vector's pages — the
    three-vector working set exceeds one node's physical memory — with
    the Aegis-style randomised replacement."""
    vector_pages = (m**3 * 8 + page_bytes - 1) // page_bytes
    return (base or ClusterConfig()).with_memory(
        frames=int(1.8 * vector_pages), replacement="random"
    )


def pde_capacity(full: bool = False) -> tuple[str, dict[str, int], ClusterConfig]:
    """The Figure 4 / Table 1 workload, a PDE whose data set exceeds one
    node's physical memory, as an ``(app, app_args, config)`` job spec."""
    m = 24 if full else 20
    return "pde3d", {"m": m, "iters": 6}, capacity_config(m)


def sort_spec(full: bool = False) -> tuple[str, dict[str, int]]:
    """The Figure 6 workload as an ``(app, app_args)`` spec."""
    return "sort", {"nrecords": 8192 if full else 4096}


# ---------------------------------------------------------------------------
# 64–256-node scale-out presets (the pluggable-fabric sweep)


def _scale_config(nodes: int, backend: str) -> ClusterConfig:
    from repro.config import SECOND

    return (
        ClusterConfig(nodes=nodes)
        .with_svm(page_size=SCALE_PAGE_BYTES)
        .with_fabric(backend=backend)
        # On the shared ring at hundreds of nodes, queueing delay behind
        # the medium can exceed the default 500 ms retransmission
        # timeout — the timer would then flood the medium with duplicate
        # requests of messages that are merely queued, not lost.  The
        # scale presets raise the timeout so retransmission stays what
        # it is for: loss recovery.
        .replace(retransmit_timeout=30 * SECOND)
    )


def scale_fig5(nodes: int, backend: str) -> tuple[str, dict[str, int], ClusterConfig]:
    """Figure-5-class communication-bound point at ``nodes`` stations.

    Dot product with one scatter block per worker — the workload the
    paper chose "to show the weak side" of SVM.  Traffic grows linearly
    with nodes while per-node compute stays constant, so this preset is
    a pure measure of how the medium absorbs offered load.

    Returns a ``(app, app_args, config)`` spec for
    :class:`repro.exps.parallel.Job`.
    """
    return "dotprod", {"n": 512 * nodes}, _scale_config(nodes, backend)


#: Grid edge per node count for the fig4-class capacity preset.  Grows
#: with the machine (more nodes -> bigger problem, the paper's scaled
#: regime) but sub-linearly, keeping the serial sweep affordable.
_SCALE_FIG4_M = {64: 64, 128: 96, 256: 128}


def scale_fig4(nodes: int, backend: str) -> tuple[str, dict[str, int], ClusterConfig]:
    """Figure-4-class capacity-bound point at ``nodes`` stations.

    The 3-D PDE with per-node frames at 1.8 of one solution vector's
    pages — the data set exceeds any single memory and lives spread
    across the cluster, so every iteration moves slabs and ghost planes
    over the fabric.

    Returns a ``(app, app_args, config)`` spec for
    :class:`repro.exps.parallel.Job`.
    """
    m = _SCALE_FIG4_M.get(nodes, max(32, min(128, nodes)))
    config = capacity_config(m, SCALE_PAGE_BYTES, base=_scale_config(nodes, backend))
    return "pde3d", {"m": m, "iters": 2}, config
