"""EXPERIMENTS.md's measured tables agree with the committed report.

Each measured table in the Fig. 4/5/6, Table 1 and ablation sections is
read cell by cell and compared with the same experiment's table in
``results/full_experiments.txt``: its headers and row labels must be
the report's, and every cell must equal the report's cell up to
spacing and unit glyphs (``µs``/``us``, ``×``/``x``).  A table may show
a subset of the report's rows and columns (Fig. 5 shows every second
processor count).  Table 1's paper numbers must equal the ones the
experiment states.  Compare ``tests/svm/test_op_table.py``, which
checks DESIGN.md's op table the same way.
"""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.exps import table1
from repro.exps.all import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[2]
DOC = (ROOT / "EXPERIMENTS.md").read_text()
REPORT = (ROOT / "results" / "full_experiments.txt").read_text()

#: Start of an EXPERIMENTS.md heading -> the experiment its table shows.
SECTIONS = {
    "Figure 4": "fig4",
    "Table 1": "table1",
    "Figure 5": "fig5",
    "Figure 6": "fig6",
    "Coherence manager algorithms": "ablation_managers",
    "Page size": "ablation_pagesize",
    "Memory allocation": "ablation_allocator",
    "Passive load balancing": "ablation_loadbalance",
    "Shared virtual memory vs message passing": "ablation_msgpass",
    "Write policy": "ablation_writepolicy",
    "Disk I/O overlap": "ablation_overlap",
}


def _doc_tables(heading: str) -> list[list[list[str]]]:
    """Every markdown table under the heading that starts with
    ``heading``, as rows of cells (header first, the ``---`` rule
    dropped)."""
    blocks = re.split(r"^#{2,3} ", DOC, flags=re.MULTILINE)
    (block,) = [b for b in blocks if b.startswith(heading)]
    tables = re.findall(r"(?:^\|.*\|\n)+", block, flags=re.MULTILINE)
    return [
        [[c.strip() for c in line.strip("|").split("|")]
         for line in table.splitlines() if not set(line) <= set("|-: ")]
        for table in tables
    ]


def _report_table(name: str) -> tuple[list[str], list[list[str]]]:
    body = REPORT.split(f"=== {name} ===\n")[1].split("\n\n=== ")[0].rstrip("\n")
    lines = body.split("\n")
    rule = next(i for i, line in enumerate(lines) if line and set(line) == {"-"})
    cells = [re.split(r"\s{2,}", line.strip()) for line in lines[rule - 1:]]
    return cells[0], cells[2:]


def _same(doc_cell: str, report_cell: str) -> bool:
    def norm(cell: str) -> str:
        return cell.replace(" ", "").replace("µ", "u").replace("×", "x")

    return norm(doc_cell) == norm(report_cell)


@pytest.mark.parametrize("heading, name", SECTIONS.items(), ids=SECTIONS.values())
def test_the_measured_table_matches_the_committed_report(heading, name):
    experiment = next(e for e in EXPERIMENTS if e.name == name)
    labels = experiment.label_columns
    header, *rows = _doc_tables(heading)[-1]  # the measured table is last
    report_header, report_rows = _report_table(name)
    unknown = [h for h in header if h not in report_header]
    assert not unknown, f"{name}: columns {unknown} are not in the report's {report_header}"
    by_label = {tuple(row[:labels]): row for row in report_rows}
    for row in rows:
        label = tuple(row[:labels])
        assert label in by_label, f"{name}: row {label} is not in the report"
        report_row = by_label[label]
        for column, cell in list(zip(header, row))[labels:]:
            want = report_row[report_header.index(column)]
            assert _same(cell, want), (
                f"{name}: row {label}, column {column!r}: EXPERIMENTS.md says "
                f"{cell!r}, the committed report {want!r}"
            )


def test_table1_paper_numbers_are_the_ones_the_experiment_states():
    paper, _measured = _doc_tables("Table 1")
    stated = {
        line.split(":")[0].strip(): line.split(":")[1].split()[:6]
        for line in table1.EXPERIMENT.paper.splitlines() if "processor" in line
    }
    assert {row[0]: row[1:] for row in paper[1:]} == stated
