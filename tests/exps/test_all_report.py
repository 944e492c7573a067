"""``python -m repro.exps.all --check``: the report is checked cell by
cell, and every experiment's shape is asserted.

The real battery takes ~20 s at ``--full`` (CI runs it); here two cheap
stub experiments of the real :class:`Experiment` type show what the
runner writes and what the check names when something moves: the
experiment, the row and the column of a changed cell, and the
experiment and the assertion of a broken shape.
"""

from __future__ import annotations

import pytest

from repro.exps import all as battery
from repro.exps.experiment import Column, Experiment, Record, seconds

REPORT = """\
=== fig_a ===
Figure A

processors    time
------------------
         1  2.000s
         2  1.000s

=== fig_b ===
Figure B

workload  policy  msgs
----------------------
   polls  update     3
"""


def _fig_a_shape(records: list[Record]) -> None:
    one, two = records
    assert two["time_ns"] < one["time_ns"]


def _fig_a(shape=_fig_a_shape) -> Experiment:
    return Experiment(
        name="fig_a",
        title="Figure A",
        columns=(Column("processors", "p"), Column("time", "time_ns", seconds)),
        run=lambda full: [{"p": 1, "time_ns": 2 * 10**9}, {"p": 2, "time_ns": 10**9}],
        shape=shape,
        paper="stub",
    )


FIG_B = Experiment(
    name="fig_b",
    title="Figure B",
    columns=(Column("workload", "w"), Column("policy", "policy"), Column("msgs", "msgs")),
    run=lambda full: [{"w": "polls", "policy": "update", "msgs": 3}],
    shape=lambda records: None,
    paper="stub",
    label_columns=2,
)


@pytest.fixture
def two_experiments(monkeypatch):
    monkeypatch.setattr(battery, "EXPERIMENTS", [_fig_a(), FIG_B])


def test_the_report_is_stdout_and_wall_times_go_to_stderr(
    two_experiments, tmp_path, capsys
):
    out = tmp_path / "report.txt"
    assert battery.main(["--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert out.read_text() == REPORT
    assert captured.out.startswith(REPORT)
    assert "wall]" not in captured.out and captured.err.count("wall]") == 2


def test_check_passes_on_the_same_report_and_diffs_a_different_one(
    two_experiments, tmp_path, capsys
):
    committed = tmp_path / "committed.txt"
    committed.write_text(REPORT)
    assert battery.main(["--check", str(committed)]) == 0
    assert "report matches" in capsys.readouterr().out

    committed.write_text(REPORT.replace("   polls  update     3", "   polls  update     4"))
    assert battery.main(["--check", str(committed)]) == 1
    out = capsys.readouterr().out
    assert "fig_b: row 'polls / update', column 'msgs': committed '4', fresh '3'" in out
    assert "fig_a:" not in out


def test_check_names_a_changed_line_and_a_missing_experiment(
    two_experiments, tmp_path, capsys
):
    committed = tmp_path / "committed.txt"
    fig_a = REPORT.split("=== fig_b")[0]
    committed.write_text(
        fig_a.replace("Figure A", "Figure Z").replace("         2  1.000s", "          2 1.000s")
    )
    assert battery.main(["--check", str(committed)]) == 1
    out = capsys.readouterr().out
    assert "fig_a: line 1: committed 'Figure Z', fresh 'Figure A'" in out
    assert "fig_a: line 6: committed '          2 1.000s', fresh '         2  1.000s'" in out
    assert "fig_b: missing from the committed report" in out


def test_a_broken_shape_exits_1_naming_the_experiment_and_the_assertion(
    monkeypatch, tmp_path, capsys
):
    def upside_down(records: list[Record]) -> None:
        one, two = records
        assert two["time_ns"] > one["time_ns"]

    monkeypatch.setattr(battery, "EXPERIMENTS", [_fig_a(upside_down), FIG_B])
    committed = tmp_path / "committed.txt"
    committed.write_text(REPORT)
    assert battery.main(["--check", str(committed)]) == 1
    out = capsys.readouterr().out
    assert 'fig_a: shape fails: assert two["time_ns"] > one["time_ns"]' in out
    assert "report matches" not in out


def test_a_bad_worker_count_is_a_usage_error(monkeypatch, capsys):
    """``REPRO_WORKERS`` out of range stops one experiment and the whole
    battery with a usage error (exit 2) before anything is simulated."""
    from repro.exps import fig6
    from repro.exps.experiment import main as experiment_main

    monkeypatch.setenv("REPRO_WORKERS", "zero")
    message = "error: REPRO_WORKERS must be an integer >= 1, got 'zero'"
    for run in (lambda: experiment_main(fig6.EXPERIMENT, []), lambda: battery.main([])):
        with pytest.raises(SystemExit) as usage:
            run()
        assert usage.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage:")
        assert captured.err.splitlines()[-1].endswith(message)
