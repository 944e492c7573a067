"""Every benchmark program must produce the sequential golden answer on
every processor count and under every coherence algorithm — the apps
double as end-to-end coherence tests with real data."""

import numpy as np
import pytest

from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.matmul import MatmulApp
from repro.apps.pde3d import Pde3dApp
from repro.apps.sort import MergeSplitSortApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig
from repro.exps.parallel import run_app

SMALL = {
    "jacobi": lambda p: JacobiApp(p, n=48, iters=3),
    "pde3d": lambda p: Pde3dApp(p, m=8, iters=3),
    "matmul": lambda p: MatmulApp(p, n=40),
    "dotprod": lambda p: DotProductApp(p, n=4096),
    "sort": lambda p: MergeSplitSortApp(p, nrecords=256),
    "tsp": lambda p: TspApp(p, ncities=8),
}


@pytest.mark.parametrize("app_name", sorted(SMALL))
@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_apps_match_golden(app_name, nprocs):
    run_app(SMALL[app_name], nprocs)  # run_app invokes app.check()


@pytest.mark.parametrize("app_name", sorted(SMALL))
@pytest.mark.parametrize("algorithm", ["centralized", "fixed"])
def test_apps_under_other_managers(app_name, algorithm):
    config = ClusterConfig().with_svm(algorithm=algorithm)
    run_app(SMALL[app_name], 3, config=config)


@pytest.mark.parametrize("app_name", sorted(SMALL))
def test_apps_under_frame_pressure(app_name):
    """The whole suite must survive tight memory (pager interplay)."""
    config = ClusterConfig().with_memory(frames=48, replacement="random")
    run_app(SMALL[app_name], 2, config=config)


def test_apps_with_odd_process_counts():
    # More workers than divides evenly (partition edge cases).
    run_app(lambda p: JacobiApp(p, n=50, iters=2), 3)
    run_app(lambda p: Pde3dApp(p, m=7, iters=2), 3)
    # More workers than rows/slabs: some workers own nothing.
    run_app(lambda p: Pde3dApp(p, m=5, iters=2), 4)


def test_jacobi_converges_towards_solution():
    app = JacobiApp(1, n=32, iters=60)
    x = app.golden()
    residual = np.linalg.norm(app.A @ x - app.b)
    assert residual < 1e-6


def test_tsp_golden_agrees_with_bruteforce():
    from itertools import permutations

    app = TspApp(1, ncities=7)
    best = min(
        sum(app.w[path[i], path[i + 1]] for i in range(6)) + app.w[path[6], path[0]]
        for path in ([0] + list(rest) for rest in permutations(range(1, 7)))
    )
    assert np.isclose(app.golden(), best)


def test_tsp_nearest_neighbour_is_upper_bound():
    app = TspApp(1, ncities=9)
    assert app.nearest_neighbour_tour() >= app.golden() - 1e-9


def test_sort_handles_non_divisible_record_counts():
    # nrecords not divisible by 2N gets rounded up internally.
    app_factory = lambda p: MergeSplitSortApp(p, nrecords=100)
    run_app(app_factory, 3)


def test_dotprod_requires_block_multiple():
    with pytest.raises(AssertionError):
        DotProductApp(1, n=1000)  # not a multiple of the scatter block
