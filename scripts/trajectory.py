"""Print each bench workload's wall-clock trajectory, chained from ``records/``.

Wall numbers cannot be compared across records: each record is one
session on a shared host, and the same tree has read 8 % apart in two
sessions.  A record's change/parent ratio can be compared, so this
script chains them.  For every ``records/pr<N>_<workload>.json`` from
PR 31 on, it takes each side's median ``wall_s`` over all of the
record's pairs, with both seeds pooled, and multiplies the
change/parent ratios in PR order.  A side record that measured a
variant rather than a change, such as PR 36's
``pr36_kernel_lanes_<workload>.json``, does not match the name pattern
and is left out.

Records come in two schemas: PRs 29-42 keep a ``summary`` and pairs at
the one seed their ``command`` names, PRs 44 on keep ``seeds`` and a
``seed`` on every pair.  Neither summary is read: from PR 31 on, every
pair row of both schemas carries its ``side`` and ``wall_s``, and the
pooled medians are taken from those rows alone.

Run from anywhere; it reads nothing but ``records/``::

    python scripts/trajectory.py
"""

from __future__ import annotations

import json
import math
import re
import statistics
import sys
from pathlib import Path

RECORDS = Path(__file__).resolve().parent.parent / "records"
FIRST_PR = 31
WORKLOADS = (
    "paper_ring_p8", "scale_switched_n256", "capacity_pde",
    "checker_stack", "lossy_ring_p4", "instrumented_p8",
)
_NAME = re.compile(r"pr(\d+)_(" + "|".join(WORKLOADS) + r")\.json")


def ratios(through: int | None = None) -> dict[str, list[tuple[int, float]]]:
    """workload -> [(pr, change/parent median wall_s)] in PR order, for
    the records from PR 31 up to ``through`` (all when None)."""
    table: dict[str, list[tuple[int, float]]] = {name: [] for name in WORKLOADS}
    for path in RECORDS.iterdir():
        match = _NAME.fullmatch(path.name)
        if match is None:
            continue
        pr = int(match.group(1))
        if pr < FIRST_PR or (through is not None and pr > through):
            continue
        walls: dict[str, list[float]] = {"parent": [], "change": []}
        for pair in json.loads(path.read_text())["pairs"]:
            walls[pair["side"]].append(pair["wall_s"])
        ratio = statistics.median(walls["change"]) / statistics.median(walls["parent"])
        table[match.group(2)].append((pr, ratio))
    for steps in table.values():
        steps.sort()
    return table


def main() -> int:
    table = ratios()
    print(f"| workload | chained wall_s since PR {FIRST_PR} | records |")
    print("|---|---|---|")
    for name, steps in table.items():
        last = steps[-1][0] if steps else "-"
        print(f"| `{name}` | {math.prod(r for _pr, r in steps):.3f} | "
              f"{len(steps)}, PR {FIRST_PR}-{last} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
