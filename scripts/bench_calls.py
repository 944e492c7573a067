"""Write ``BENCH_calls.json``: Python calls per kernel event, per layer.

Runs ``python -m bench --smoke --seed 1988`` (about 10 s) and keeps,
for each of its six workloads, the traced pass's ``sim.events`` and
every ``calls_per_event.<layer>`` except ``other`` (the standard
library and the harness, not the simulator).  Call counts are exact, so the file
is a pure function of the source on one interpreter version: CI
regenerates it on CPython 3.11 and fails on any difference.  A change
that adds or removes a call on the per-event path shows here, layer by
layer, with no host-time noise::

    python scripts/bench_calls.py --out BENCH_calls.json
    git diff --exit-code -- BENCH_calls.json

The ``roles`` table splits ``instrumented_p8``'s smoke units (sort and
dotprod at p=8, plain, checked and observed) into one row each, so what
the checker and observation add shows beside the plain twin.  Each row
profiles the unit's second run in this process (cProfile,
``builtins=False``, files bucketed by ``bench.trace.group_of``): the
first one fills the per-process caches, so a row is the same whatever
ran before it.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "calls_per_event."
SEED = 1988
ROLES_WORKLOAD = "instrumented_p8"


def collect() -> dict[str, dict[str, float]]:
    """Run the smoke pass in a scratch directory; return its counts."""
    with tempfile.TemporaryDirectory() as out_dir:
        subprocess.run(
            [sys.executable, "-m", "bench", "--smoke", "--seed", str(SEED),
             "--out-dir", out_dir],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        result = Path(out_dir) / f"smoke-s{SEED}.json"
        workloads = json.loads(result.read_text())["workloads"]
    table = {}
    for name, record in sorted(workloads.items()):
        layers = record["per_layer"]
        row = {"sim.events": int(layers["sim.events"])}
        for key in sorted(layers):
            if key.startswith(PREFIX) and key != PREFIX + "other":
                row[key] = round(layers[key], 6)
        table[name] = row
    return table


def roles() -> dict[str, dict[str, float]]:
    """Calls per event per layer of each ``instrumented_p8`` smoke unit."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from bench.trace import GROUPS, group_of
    from bench.workloads import build_app, plan
    from repro.api.ivy import Ivy

    table = {}
    for sim in plan(ROLES_WORKLOAD, SEED, smoke=True).units:
        app, ivy = build_app(sim, SEED), Ivy(sim.config)
        ivy.run(app.main)  # fills the per-process caches
        app, ivy = build_app(sim, SEED), Ivy(sim.config)
        profile = cProfile.Profile(builtins=False)
        profile.enable()
        ivy.run(app.main)
        profile.disable()
        events = ivy.cluster.sim.events_executed
        calls = dict.fromkeys(GROUPS, 0)
        for entry in profile.getstats():
            calls[group_of(entry.code.co_filename)] += entry.callcount
        row: dict[str, float] = {"sim.events": events}
        for group in sorted(GROUPS):
            if group != "other":
                row[PREFIX + group] = round(calls[group] / events, 6)
        table[sim.label] = row
    return table


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_calls.json")
    args = parser.parse_args(argv)
    record = {
        "python": "%d.%d" % sys.version_info[:2],
        "source": f"python -m bench --smoke --seed {SEED}, traced pass",
        "workloads": collect(),
        "roles_source": f"{ROLES_WORKLOAD} smoke units, seed {SEED}, each one's second run",
        "roles": roles(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
