"""``scripts/trajectory.py`` chains the committed records' change/parent
wall-clock ratios; through PR 45 it must give the table ROADMAP.md
quotes at that re-anchor."""

import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "trajectory.py"

#: ROADMAP item 3(b): chained wall_s since PR 31, records through PR 45.
THROUGH_PR45 = {
    "paper_ring_p8": 0.925,
    "scale_switched_n256": 0.747,
    "capacity_pde": 0.781,
    "checker_stack": 0.852,
    "lossy_ring_p4": 0.902,
    "instrumented_p8": 0.870,
}


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chain_through_pr45_reproduces_the_roadmap_table(trajectory):
    table = trajectory.ratios(through=45)
    chained = {name: math.prod(r for _pr, r in steps) for name, steps in table.items()}
    assert chained == pytest.approx(THROUGH_PR45, abs=0.005)
    # Eleven records each (PRs 31-33, 35, 36, 39-42, 44, 45): the
    # kernel-lanes side records of PR 36 are not among them.
    assert {name: [pr for pr, _r in steps] for name, steps in table.items()} == dict.fromkeys(
        THROUGH_PR45, [31, 32, 33, 35, 36, 39, 40, 41, 42, 44, 45]
    )


def test_the_script_prints_one_row_per_workload(trajectory, capsys):
    assert trajectory.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("`")[1] for line in lines[2:]] == list(THROUGH_PR45)
