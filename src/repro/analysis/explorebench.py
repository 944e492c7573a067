"""The exhaustive explore-smoke sweeps as a committed record.

Runs every sweep of :data:`SWEEPS` under the explorer's independence
relation — the statically proven matrix (:func:`certified_relation`) —
and records each outcome: schedule, event and pruned-child counts,
statuses, violations and the distinct final-state fingerprints (as one
content hash).  DFS is a pure function of the scenario, for any number
of worker processes, so the record holds no host time and the file
written by ``python -m repro.analysis explore-bench --out
BENCH_explore.json`` must equal the committed one byte for byte (CI runs
``git diff --exit-code`` on it); any difference means the explorer's
semantics changed and the record needs a reviewed update.  The CLI also
exits 1, naming the sweep, when a sweep is truncated: a truncated sweep
proves nothing.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.analysis import explore as ex

__all__ = ["SWEEPS", "run_bench"]


def _key(scenario: ex.Scenario) -> str:
    """The sweep's name in ``BENCH_explore.json``."""
    tail = f"+hint{scenario.hint_period}" if scenario.hint_period else ""
    return (
        f"{scenario.algorithm}-n{scenario.nodes}-p{scenario.pages}"
        f"-{scenario.workload}{tail}"
    )


#: The exhaustive CI sweeps (every one completes without truncation —
#: a truncated sweep proves nothing).  The set mirrors the explore-smoke
#: job: all four managers on the minimal tie-rich configs, plus
#: multi-page and hint-broadcast shapes where fan-out deliveries tie.
SWEEPS: tuple[ex.Scenario, ...] = (
    ex.Scenario("centralized", 2, 1, "rw"),
    ex.Scenario("fixed", 2, 1, "rw"),
    ex.Scenario("dynamic", 2, 1, "rw"),
    ex.Scenario("broadcast", 2, 1, "rw"),
    ex.Scenario("centralized", 3, 2, "rw"),
    ex.Scenario("fixed", 3, 2, "rw"),
    ex.Scenario("centralized", 3, 1, "mixed"),
    ex.Scenario("fixed", 3, 1, "chown"),
    ex.Scenario("dynamic", 3, 1, "chown", hint_period=1),
    # The first 4-node exhaustive configurations (864 schedules each).
    ex.Scenario("dynamic", 4, 1, "rw"),
    ex.Scenario("centralized", 4, 1, "rw"),
)


def _fingerprint_hash(fingerprints: set[str]) -> str:
    digest = hashlib.sha256()
    for fp in sorted(fingerprints):
        digest.update(fp.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def _sweep(scenario: ex.Scenario, result: ex.ExplorationResult) -> dict[str, Any]:
    return {
        "scenario": scenario.to_dict(),
        "schedules": result.schedules,
        "events": result.events,
        "sleep_pruned": result.sleep_pruned,
        "truncated": result.truncated,
        "statuses": dict(sorted(result.statuses.items())),
        "states": len(result.fingerprints),
        "fingerprint_sha256": _fingerprint_hash(result.fingerprints),
        "violations": [
            {
                "status": ce.status,
                "rule": ce.rule,
                "choices": list(ce.choices),
                "drops": list(ce.drops),
            }
            for ce in result.violations
        ],
    }


def run_bench(
    sweeps: tuple[ex.Scenario, ...] = SWEEPS, jobs: int | None = None
) -> dict[str, Any]:
    """Run every sweep (on ``jobs`` processes each, see
    :func:`repro.analysis.explore.explore_dfs`: the record is the same
    for any number); returns the record."""
    return {
        "schema": "repro.explore/2",
        "sweeps": {
            _key(scenario): _sweep(
                scenario,
                # far above the largest sweep (864)
                ex.explore_dfs(scenario, max_schedules=50_000, jobs=jobs),
            )
            for scenario in sweeps
        },
    }
