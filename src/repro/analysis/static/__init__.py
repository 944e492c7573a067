"""Static protocol verification (the lint-time half of ``repro.analysis``).

Where :mod:`repro.analysis.oracle` and :mod:`repro.analysis.explore`
check *executions* (one schedule at a time), this package checks the
*program text* — properties that hold for every schedule, proven at
lint time:

- :mod:`repro.analysis.static.facts` — the syntactic substrate,
  including the one parser of the protocol's op table (the
  ``repro.svm.protocol.Op`` row literals every analysis below reads:
  which ops a class serves, by which handler, keyed by which page,
  lock-free or claimed fan-out-safe);
- :mod:`repro.analysis.static.cfg` — per-function control-flow graphs
  with exception edges and ``finally`` duplication;
- :mod:`repro.analysis.static.dataflow` — a generic disjunctive
  forward-analysis driver over those CFGs;
- :mod:`repro.analysis.static.locks` — held-lock/span abstract
  interpretation: the six legacy protocol-lint rules, now path-aware
  (the ``try_acquire`` fast path and keeps-lock hand-offs are inferred,
  not annotated);
- :mod:`repro.analysis.static.waitfor` — cross-handler lock-order and
  wait-for graph per manager class, proven acyclic (static
  deadlock-freedom for all five classes: the four coherence managers
  and their shared base);
- :mod:`repro.analysis.static.messages` — message-exhaustiveness
  matrix: every sent op has a handler, every awaited op a total reply
  path;
- :mod:`repro.analysis.static.determinism` — the simulation stays a
  pure function of its seed (no wall-clock, unseeded RNGs, id()
  ordering or raw set iteration);
- :mod:`repro.analysis.static.footprints` — interprocedural read/write
  effect analysis over every message handler, certifying the ``page``
  column of its op-table row against the handler's actual page-keyed
  state accesses;
- :mod:`repro.analysis.static.commute` — from those effects, proves
  each row's ``fanout`` claim handler-by-handler and emits the
  certified commutativity matrix that ``explore.py``'s
  ``certified_relation`` — the explorer's only independence relation —
  is built from.

Run ``python -m repro.analysis.static`` (optionally ``--sarif out.json``)
for the whole suite; :func:`discipline_lint` runs the lock/span/handle
discipline rules alone.
"""

from repro.analysis.static.engine import (
    StaticReport,
    discipline_lint,
    run_default,
    run_explicit,
)
from repro.analysis.static.findings import Finding, render, to_sarif, write_sarif

__all__ = [
    "Finding",
    "StaticReport",
    "discipline_lint",
    "render",
    "run_default",
    "run_explicit",
    "to_sarif",
    "write_sarif",
]
