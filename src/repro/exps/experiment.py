"""One experiment type and the one runner every paper experiment uses.

:meth:`Experiment.render` prints the paper-style table, :func:`compare`
checks a rendered report against a committed one cell by cell,
:func:`shape_failure` names the assertion a shape breaks, and
:func:`main` is every experiment module's ``python -m`` entry point.
"""

from __future__ import annotations

import argparse
import itertools
import re
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.api.ivy import Ivy
from repro.config import ClusterConfig, ConfigError
from repro.metrics.report import ascii_table

#: One row of an experiment's result: typed numbers and labels by key.
Record = dict[str, Any]


def fixed2(value: float) -> str:
    return f"{value:.2f}"


def seconds(ns: int) -> str:
    return f"{ns / 1e9:.3f}s"


@dataclass(frozen=True)
class Column:
    """A table column: its header, the record key it shows and how."""

    header: str
    key: str
    fmt: Callable[[Any], str] = str


@dataclass(frozen=True)
class Experiment:
    """One figure, table or ablation of the paper as data.

    ``run(full)`` returns records of typed numbers; ``shape(records)``
    asserts the qualitative claim EXPERIMENTS.md reports; ``paper`` is
    the paper's own words (or numbers), stated here and nowhere else in
    ``src``.  The first ``label_columns`` cells of a row name it in a
    failed check.  A column no record carries is not printed (the quick
    Figure 5 sweep skips p=3, 5, 6 and 7).
    """

    name: str
    title: str
    columns: Sequence[Column]
    run: Callable[[bool], list[Record]]
    shape: Callable[[list[Record]], None]
    paper: str
    caption: str = ""
    label_columns: int = 1

    def render(self, records: list[Record]) -> str:
        shown = [c for c in self.columns if any(c.key in r for r in records)]
        rows = [[c.fmt(r[c.key]) for c in shown] for r in records]
        table = ascii_table([c.header for c in shown], rows, title=self.caption)
        return f"{self.title}\n\n{table}"


def run_program(config: ClusterConfig, program: Callable[..., Any], *counters: str) -> Record:
    """Run ``program`` as the main process of a fresh cluster and record
    its simulated time, the medium's messages and the named cluster-wide
    counters."""
    ivy = Ivy(config)
    ivy.run(program)
    total = ivy.cluster.total_counters()
    record: Record = {"time_ns": ivy.time_ns, "msgs": ivy.cluster.fabric.stats.messages}
    return record | {name: total[name] for name in counters}


def shape_failure(experiment: Experiment, records: list[Record]) -> str | None:
    """``None`` if the shape holds, else the experiment and the failing
    assertion's source line (and its message, if it has one)."""
    try:
        experiment.shape(records)
    except AssertionError as err:
        line = traceback.extract_tb(err.__traceback__)[-1].line
        detail = f" ({err})" if str(err) else ""
        return f"{experiment.name}: shape fails: {line}{detail}"
    return None


def _sections(report: str) -> dict[str, str]:
    parts = re.split(r"^=== (\S+) ===\n", report, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


def _cells(line: str) -> list[str]:
    return re.split(r"\s{2,}", line.strip())


def compare(experiments: Sequence[Experiment], committed: str, fresh: str) -> list[str]:
    """Every difference between two reports, each naming the experiment
    and its line or, inside a table, its row label and column header,
    with the committed and the fresh value."""
    old_sections, new_sections = _sections(committed), _sections(fresh)
    problems = [f"{name}: not produced by this run" for name in old_sections
                if name not in new_sections]
    for exp in experiments:
        if exp.name not in old_sections:
            problems.append(f"{exp.name}: missing from the committed report")
            continue
        old, new = old_sections[exp.name].split("\n"), new_sections[exp.name].split("\n")
        rule = next(i for i, line in enumerate(new) if line and set(line) == {"-"})
        headers = _cells(new[rule - 1])
        for i, (was, now) in enumerate(itertools.zip_longest(old, new, fillvalue="")):
            if was == now:
                continue
            label = " / ".join(_cells(now)[: exp.label_columns])
            cells = [
                f"{exp.name}: row {label!r}, column {header!r}: committed {a!r}, fresh {b!r}"
                for header, a, b in zip(headers, _cells(was), _cells(now)) if a != b
            ]
            if i > rule and len(_cells(was)) == len(_cells(now)) == len(headers) and cells:
                problems += cells
            else:  # outside the table, a row's shape or only its spacing changed
                problems.append(f"{exp.name}: line {i + 1}: committed {was!r}, fresh {now!r}")
    return problems


def main(experiment: Experiment, argv: list[str] | None = None) -> None:
    """``python -m repro.exps.<name> [--full]``: print the table."""
    parser = argparse.ArgumentParser(
        description=f"{experiment.title}\n\nThe paper: {experiment.paper}",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--full", action="store_true", help="paper-scale workloads")
    args = parser.parse_args(argv)
    try:
        records = experiment.run(args.full)
    except ConfigError as exc:  # REPRO_WORKERS out of range
        parser.error(str(exc))
    print(experiment.render(records))
