"""The paper shapes whose quick presets run in well under a second,
asserted in the unit suite (the rest run under ``benchmarks/``)."""

import pytest

from repro.exps.all import EXPERIMENTS
from repro.exps.experiment import shape_failure

QUICK = ("ablation_allocator", "ablation_loadbalance", "ablation_overlap", "ablation_msgpass")


@pytest.mark.parametrize("name", QUICK)
def test_quick_shape_holds(name):
    experiment = next(e for e in EXPERIMENTS if e.name == name)
    assert shape_failure(experiment, experiment.run(False)) is None
