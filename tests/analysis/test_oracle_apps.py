"""The checker must be silent on correct programs: every benchmark under
every manager runs oracle-clean, and enabling it must not perturb the
simulation (pure observation)."""

import pytest

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.matmul import MatmulApp
from repro.apps.pde3d import Pde3dApp
from repro.apps.sort import MergeSplitSortApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig

MANAGERS = ("centralized", "fixed", "dynamic")


def run_checked(app, nodes=3, algorithm="dynamic"):
    config = ClusterConfig(nodes=nodes, checker=True).with_svm(algorithm=algorithm)
    ivy = Ivy(config)
    result = ivy.run(app.main)
    app.check(result)
    return ivy


@pytest.mark.parametrize("algorithm", MANAGERS)
def test_dotprod_oracle_clean(algorithm):
    ivy = run_checked(DotProductApp(3, n=1024), algorithm=algorithm)
    assert ivy.cluster.oracle.checks_run > 0
    assert ivy.cluster.total_counters().violations() == {}
    assert ivy.races.races == []


@pytest.mark.parametrize("algorithm", MANAGERS)
def test_jacobi_oracle_clean(algorithm):
    ivy = run_checked(JacobiApp(3, n=32, iters=2), algorithm=algorithm)
    assert ivy.cluster.oracle.checks_run > 0
    assert ivy.cluster.total_counters().violations() == {}
    assert ivy.races.races == []


@pytest.mark.parametrize("algorithm", MANAGERS)
@pytest.mark.parametrize(
    "app",
    [
        lambda: MergeSplitSortApp(3, nrecords=192),
        lambda: MatmulApp(3, n=24),
        lambda: Pde3dApp(3, m=8, iters=2),
    ],
    ids=["sort", "matmul", "pde3d"],
)
def test_block_partitioned_apps_oracle_clean(app, algorithm):
    """The other three Fig. 5 programs: cheap enough to check now that
    the detector's cost follows runs, not words."""
    ivy = run_checked(app(), algorithm=algorithm)
    assert ivy.cluster.oracle.checks_run > 0
    assert ivy.cluster.total_counters().violations() == {}
    assert ivy.races.races == []
    assert ivy.races.words_covered > 100 * len(ivy.races.runs)


@pytest.mark.parametrize("algorithm", MANAGERS)
def test_tsp_oracle_clean_with_benign_race(algorithm):
    """TSP optimistically reads the best bound without the lock (by
    design — a stale bound only weakens pruning).  The detector must
    report that as a race (it is one) but nothing else, and the memory
    itself must stay coherent."""
    ivy = run_checked(TspApp(3, ncities=7), algorithm=algorithm)
    violations = ivy.cluster.total_counters().violations()
    assert set(violations) <= {"race"}
    words = {report.addr for report in ivy.races.races}
    assert len(words) <= 1  # confined to the shared best-bound word


def test_checker_is_pure_observation():
    """Same program, checker on and off: identical result, identical
    simulated end time and identical event count — the oracle and the
    race detector yield no effects and schedule nothing."""
    runs, results = [], []
    for checker in (False, True):
        app = DotProductApp(3, n=1024)
        config = ClusterConfig(nodes=3, checker=checker)
        ivy = Ivy(config)
        results.append(ivy.run(app.main))
        runs.append((ivy.time_ns, ivy.cluster.sim.events_executed))
    assert results[0] == results[1]
    assert runs[0] == runs[1]


def test_cli_takes_every_registered_app(capsys):
    """``run --app`` goes through the app registry: all six programs,
    and a typo is a ConfigError that names the closest one."""
    from repro.analysis.__main__ import _APP_ARGS, main
    from repro.config import ConfigError
    from repro.exps.parallel import APP_REGISTRY

    assert set(_APP_ARGS) == set(APP_REGISTRY)
    assert main(["run", "--app", "sort", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "sort on 2 nodes (dynamic): result ok" in out
    assert "race: " in out and " words / " in out
    # A typo is a usage error (exit 2) whose cause is the ConfigError.
    with pytest.raises(SystemExit) as exc:
        main(["run", "--app", "sorrt"])
    assert exc.value.code == 2
    error = exc.value.__context__
    assert isinstance(error, ConfigError)
    assert error.field == "app" and error.suggestion == "sort"
    assert "error: unknown app 'sorrt'" in capsys.readouterr().err


def test_checker_off_leaves_no_hooks():
    ivy = Ivy(ClusterConfig(nodes=2))
    assert ivy.races is None
    assert ivy.cluster.oracle is None
