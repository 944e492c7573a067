"""The simulator's benchmark: six workloads, measured from outside.

``python -m bench`` runs every workload in fresh child processes, checks
every output, and prints each metric named in ``BENCHMARK.json`` with its
unit.  Nothing here is imported by ``repro``; the package only calls the
public functions of ``repro.*`` and reads the stats objects they expose.
See ``bench/README.md``.
"""

from pathlib import Path

SCHEMA = "bench/1"

#: The checkout that holds ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
