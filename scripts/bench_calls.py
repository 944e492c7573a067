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
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PREFIX = "calls_per_event."
SEED = 1988


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_calls.json")
    args = parser.parse_args(argv)
    record = {
        "python": "%d.%d" % sys.version_info[:2],
        "source": f"python -m bench --smoke --seed {SEED}, traced pass",
        "workloads": collect(),
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
