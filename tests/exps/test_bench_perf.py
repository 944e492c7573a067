"""The wall-clock bench mode: schema, deterministic event counts, and the
regression-check logic CI's perf-smoke job runs."""

import copy

from repro.exps import bench
from repro.exps.bench import check_perf, run_perf


def test_run_perf_schema_and_determinism():
    doc = run_perf(repeats=1)
    assert doc["schema"] == "repro.bench-perf/1"
    assert set(doc["runs"]) == {
        "dotprod_p1", "dotprod_p2", "jacobi_p1",
        "jacobi_p2", "pde_capacity_p1", "pde_capacity_p2",
    }
    for run in doc["runs"].values():
        assert run["events"] > 0
        assert run["wall_s"] > 0.0
        assert run["events_per_sec"] > 0
    assert doc["aggregate"]["events"] == sum(
        run["events"] for run in doc["runs"].values()
    )
    # Event counts are pure simulation behaviour: a second measurement
    # must reproduce them exactly (wall clocks, of course, differ).
    again = run_perf(repeats=1)
    assert {k: v["events"] for k, v in again["runs"].items()} == {
        k: v["events"] for k, v in doc["runs"].items()
    }


def _fake_doc() -> dict:
    return {
        "schema": "repro.bench-perf/1",
        "runs": {
            "a": {"wall_s": 0.01, "events": 100, "events_per_sec": 10000},
            "b": {"wall_s": 0.02, "events": 300, "events_per_sec": 15000},
        },
        "aggregate": {"events": 400, "wall_s": 0.03, "events_per_sec": 13333},
    }


def test_cli_ignores_the_removed_tolerance_environment_variable(monkeypatch):
    """``REPRO_PERF_TOLERANCE`` used to be parsed with ``float()`` while
    the parser was built, so a bad value killed every invocation — even
    ones that never check a tolerance.  ``--tolerance`` is the only knob."""
    monkeypatch.setenv("REPRO_PERF_TOLERANCE", "abc")
    monkeypatch.setattr(bench, "run_perf", lambda repeats: _fake_doc())
    assert bench.main(["--perf"]) == 0


def test_check_perf_passes_against_itself():
    doc = _fake_doc()
    assert check_perf(doc, copy.deepcopy(doc)) == []


def test_check_perf_flags_event_drift_exactly():
    doc = _fake_doc()
    doc["runs"]["a"]["events"] = 101  # deterministic count changed
    problems = check_perf(doc, _fake_doc())
    assert len(problems) == 1 and "behaviour drift" in problems[0]


def test_check_perf_flags_missing_case():
    doc = _fake_doc()
    del doc["runs"]["b"]
    problems = check_perf(doc, _fake_doc())
    assert any("missing" in p for p in problems)


def test_check_perf_tolerates_bounded_slowdown():
    doc = _fake_doc()
    doc["aggregate"]["events_per_sec"] = 10000  # 25% down: inside 30%
    assert check_perf(doc, _fake_doc(), tolerance=0.30) == []
    doc["aggregate"]["events_per_sec"] = 9000  # 32.5% down: outside
    problems = check_perf(doc, _fake_doc(), tolerance=0.30)
    assert len(problems) == 1 and "below floor" in problems[0]
