"""Online correctness checking for the shared virtual memory.

``repro.analysis`` is an opt-in, TSan-style dynamic checker that shadows
the live simulation (enable with ``ClusterConfig.checker = True``):

- :mod:`repro.analysis.oracle` — a coherence oracle that subscribes to
  every protocol transition and asserts Li & Hudak's invariants (single
  writer / multiple readers, one owner per page, copy-set soundness,
  invalidation-epoch monotonicity, probable-owner chain termination,
  and data coherence of served page images);
- :mod:`repro.analysis.racedetect` — a vector-clock happens-before race
  detector over application-level shared-memory accesses and the IVY
  synchronisation primitives;
- :mod:`repro.analysis.replay` — an offline checker that replays the
  protocol stream a checked run fed the oracle, saved by
  ``python -m repro.analysis run --trace trace.jsonl``
  (``python -m repro.analysis replay trace.jsonl``);
- :mod:`repro.analysis.explore` — a schedule explorer / model checker
  that drives small protocol configurations through many same-tick
  interleavings (exhaustive DFS with sleep-set reduction, PCT-style
  random sampling, bounded delay injection), checking each schedule
  with the oracle and delta-debugging violations to minimal replayable
  counterexamples (``python -m repro.analysis explore ...``).

Checking is pure observation: no checker ever yields a simulation
effect, so enabling it cannot change simulated times or event counts.
A violated invariant raises :class:`InvariantViolation` carrying the
recent event history of the offending page.
"""

from repro.analysis.explore import (
    Counterexample,
    ExplorationResult,
    RunResult,
    Scenario,
    explore_delay,
    explore_dfs,
    explore_pct,
    minimize_schedule,
    run_scenario,
)
from repro.analysis.oracle import CoherenceOracle, ShadowMachine
from repro.analysis.racedetect import RaceDetector, RaceReport, TrackedMemory
from repro.analysis.violation import InvariantViolation

__all__ = [
    "CoherenceOracle",
    "Counterexample",
    "ExplorationResult",
    "InvariantViolation",
    "RaceDetector",
    "RaceReport",
    "RunResult",
    "Scenario",
    "ShadowMachine",
    "TrackedMemory",
    "explore_delay",
    "explore_dfs",
    "explore_pct",
    "minimize_schedule",
    "run_scenario",
]
