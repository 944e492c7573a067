"""Every paper experiment's shape (who wins, by roughly what factor,
where crossovers fall) on its quick preset.  The runs are deterministic,
so each executes once under the benchmark timer.
"""

import pytest

from repro.exps.all import EXPERIMENTS


@pytest.mark.parametrize("experiment", EXPERIMENTS, ids=lambda e: e.name)
def test_paper_shape(experiment, benchmark):
    records = benchmark.pedantic(experiment.run, args=(False,), rounds=1, iterations=1)
    print()
    print(experiment.render(records))
    experiment.shape(records)
