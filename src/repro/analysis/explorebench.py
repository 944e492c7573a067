"""The exhaustive explore-smoke sweeps as a committed, checkable record.

Runs every sweep of :data:`SWEEPS` under the explorer's independence
relation — the statically proven matrix (:func:`certified_relation`) —
and records the outcome in machine-readable form
(``BENCH_explore.json``, committed).  CI gates on two properties:

- **completeness**: no sweep is truncated (a truncated sweep proves
  nothing);
- **stability**: the committed baseline must match exactly — schedule
  counts, statuses, violations and the set of distinct final-state
  fingerprints (compared by content hash).  DFS is deterministic, so
  any drift means the explorer's semantics changed and the baseline
  needs a reviewed update.

The ``matrix`` section records what the relation is built from: per
algorithm, the proven fan-out set and the number of proven same-node
commuting pairs.  (On the token ring those same-node pairs can never
tie — distinct frames serialise on the medium and same-destination
arrivals preserve send order — so they reduce the state space only on
a transport where same-node ties exist.)
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter
from typing import Any

from repro.analysis import explore as ex
from repro.analysis.static.commute import build_matrix

__all__ = ["SWEEPS", "run_bench", "check_bench", "save_bench", "load_bench"]


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


def _side(result: ex.ExplorationResult, wall: float) -> dict[str, Any]:
    return {
        "relation": result.relation,
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
        "wall_s": round(wall, 3),
    }


def run_bench(
    sweeps: tuple[ex.Scenario, ...] = SWEEPS, jobs: int | None = None
) -> dict[str, Any]:
    """Run every sweep (on ``jobs`` processes each, see
    :func:`repro.analysis.explore.explore_dfs`: every exact key is the
    same for any number); returns the bench dict."""
    matrix = build_matrix()
    out: dict[str, Any] = {
        "version": 1,
        "generator": "repro.analysis.explorebench",
        "matrix": {
            name: {
                "fanout_safe": entry["fanout_safe"],
                "same_node_commuting_pairs": len(entry["same_node_commutes"]),
            }
            for name, entry in sorted(matrix["algorithms"].items())
        },
        "sweeps": {},
    }
    for scenario in sweeps:
        t0 = perf_counter()
        result = ex.explore_dfs(
            scenario,
            max_schedules=50_000,  # far above the largest sweep (864)
            relation=ex.certified_relation(scenario.algorithm, matrix),
            jobs=jobs,
        )
        out["sweeps"][_key(scenario)] = {
            "scenario": scenario.to_dict(),
            "certified": _side(result, perf_counter() - t0),
        }
    return out


#: Keys that must be identical between a run and the committed baseline
#: (wall time is excluded: it is real).
_EXACT_KEYS = (
    "schedules",
    "events",
    "sleep_pruned",
    "statuses",
    "states",
    "fingerprint_sha256",
    "violations",
)


def check_bench(bench: dict[str, Any]) -> list[str]:
    """Internal consistency: nothing truncated.  Returns human-readable
    errors (empty = pass)."""
    return [
        f"{key}: truncated sweep proves nothing"
        for key, sweep in sorted(bench.get("sweeps", {}).items())
        if sweep["certified"]["truncated"]
    ]


def compare_bench(
    current: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Drift against the committed baseline (exact: DFS is a pure
    function of the scenario)."""
    errors: list[str] = []
    cur_sweeps = current.get("sweeps", {})
    base_sweeps = baseline.get("sweeps", {})
    for key in sorted(set(cur_sweeps) | set(base_sweeps)):
        if key not in cur_sweeps:
            errors.append(f"{key}: in baseline but not in this run")
            continue
        if key not in base_sweeps:
            errors.append(f"{key}: new sweep missing from committed baseline")
            continue
        cur, base = cur_sweeps[key]["certified"], base_sweeps[key]["certified"]
        for field in _EXACT_KEYS:
            # .get: a baseline recorded before a field existed has drifted.
            if cur.get(field) != base.get(field):
                errors.append(
                    f"{key}: {field} drifted from baseline: "
                    f"{base.get(field)!r} -> {cur.get(field)!r}"
                )
    if current.get("matrix") != baseline.get("matrix"):
        errors.append(
            "matrix summary drifted from baseline: "
            f"{baseline.get('matrix')!r} -> {current.get('matrix')!r}"
        )
    return errors


def save_bench(bench: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
