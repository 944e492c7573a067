"""The schedule explorer: exhaustive enumeration stays clean on the
real protocols, partial-order reduction preserves the reachable final
states, seeded corruptions are caught / minimized / replayed, and the
randomized + delay strategies produce replayable schedules."""

import pytest

from repro.analysis.explore import (
    Counterexample,
    RecordingScheduler,
    Scenario,
    explore_delay,
    explore_dfs,
    certified_relation,
    explore_pct,
    load_artifact,
    minimize_schedule,
    replay_artifact,
    run_scenario,
    save_counterexamples,
)

MANAGERS = ("centralized", "fixed", "dynamic")


# ----------------------------------------------------------------------
# the controlled default must be the uncontrolled schedule


def test_default_choices_reproduce_the_uncontrolled_run():
    """An empty prescription (always index 0) must execute the exact
    schedule the plain simulator runs — same clock, same event count,
    same final protocol state."""
    from repro.analysis.explore import WORKLOADS, _build_cluster, _fingerprint

    scenario = Scenario(algorithm="dynamic", nodes=3, pages=2, workload="rw")
    controlled = run_scenario(scenario)
    assert controlled.status == "ok"

    plain = _build_cluster(scenario)
    for name, gen in WORKLOADS["rw"](plain, scenario):
        plain.spawn_system(gen, name)
    plain.run()
    assert plain.sim.now == controlled.time
    assert plain.sim.events_executed == controlled.events
    assert _fingerprint(plain) == controlled.fingerprint


# ----------------------------------------------------------------------
# exhaustive exploration of the real protocols is clean


@pytest.mark.parametrize("algorithm", MANAGERS)
def test_exhaustive_2node_1page_rw_is_clean(algorithm):
    """The acceptance configuration: full enumeration of the 2-node /
    1-page read-write workload finds zero violations under every
    manager algorithm."""
    scenario = Scenario(algorithm=algorithm, nodes=2, pages=1, workload="rw")
    result = explore_dfs(scenario, max_schedules=1000)
    assert not result.truncated
    assert result.schedules >= 2
    assert result.statuses == {"ok": result.schedules}
    assert result.violations == []


def test_exhaustive_3node_contended_workloads_are_clean():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    result = explore_dfs(scenario, max_schedules=1000)
    assert not result.truncated
    assert result.schedules > 10  # genuinely many interleavings
    assert result.statuses == {"ok": result.schedules}
    # Different interleavings really reach different final states.
    assert len(result.fingerprints) > 1


def test_exhaustive_broadcast_manager_is_clean():
    scenario = Scenario(algorithm="broadcast", nodes=2, pages=1, workload="rw")
    result = explore_dfs(scenario, max_schedules=1000)
    assert not result.truncated
    assert result.statuses == {"ok": result.schedules}


def test_max_schedules_truncates_explicitly():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    result = explore_dfs(scenario, max_schedules=5)
    assert result.truncated
    assert result.schedules == 5


# ----------------------------------------------------------------------
# partial-order reduction: fewer schedules, same reachable states


def test_por_prunes_but_preserves_final_states():
    """Sleep sets must cut the fan-out-heavy tree while reaching the
    same set of final protocol states as full enumeration (soundness of
    the independence relation, checked extensionally)."""
    scenario = Scenario(
        algorithm="dynamic", nodes=3, pages=1, workload="chown", hint_period=1
    )
    full = explore_dfs(scenario, por=False, max_schedules=4000)
    reduced = explore_dfs(scenario, por=True, max_schedules=4000)
    assert not full.truncated and not reduced.truncated
    assert full.violations == [] and reduced.violations == []
    assert reduced.schedules < full.schedules
    assert reduced.fingerprints == full.fingerprints


def test_independence_relation_is_conservative():
    independent = certified_relation("dynamic")
    # Different node and different page: commutes.
    assert independent(
        "deliver:n1:p0:req:svm.read:o1.2", "deliver:n2:p1:req:svm.write:o0.3"
    )
    # Same page, non-fan-out ops: conflicts.
    assert not independent(
        "deliver:n1:p0:req:svm.read:o1.2", "deliver:n2:p0:req:svm.write:o0.3"
    )
    # Same page but both fan-out deliveries of a broadcast: commutes.
    assert independent(
        "deliver:n1:p0:bcast:svm.hint:o0.4", "deliver:n2:p0:bcast:svm.hint:o0.4"
    )
    # Same target node, same page never commutes.
    assert not independent(
        "deliver:n1:p0:bcast:svm.hint:o0.4", "deliver:n1:p0:req:svm.read:o0.5"
    )
    # Unattributed labels conflict with everything.
    assert not independent("task:rw-0", "deliver:n1:p0:req:svm.read:o1.2")
    assert not independent(None, "deliver:n1:p0:req:svm.read:o1.2")
    assert not independent("deliver:n1:p?:rep:svm.read:o1.2", "task:rw-0")


def test_default_relation_is_certified_and_analysed_once(monkeypatch):
    """``explore_dfs`` with no ``relation`` prunes with the certified
    matrix of this checkout, and the static analysis behind it runs
    once per process, not once per sweep."""
    from repro.analysis import explore as ex
    from repro.analysis.static import commute

    calls = []
    real = commute.build_matrix

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(commute, "build_matrix", counting)
    ex._checkout_matrix.cache_clear()
    try:
        for algorithm in ("dynamic", "fixed"):
            result = explore_dfs(
                Scenario(algorithm=algorithm, nodes=2, pages=1, workload="rw")
            )
            assert result.relation == "certified"
        assert len(calls) == 1
    finally:
        ex._checkout_matrix.cache_clear()


def test_scheduler_is_offered_the_pinned_label_strings(monkeypatch):
    """The kernel renders the call sites' unevaluated labels to exactly
    the strings the call sites used to format themselves: sha256 over
    ``repr(label) + "\\n"`` for every label of every choice point of
    every schedule of the ``dynamic-n3-p1-chown+hint1`` sweep, in
    execution order, computed on the commit before the kernel took over
    rendering."""
    import hashlib

    from repro.analysis import explore as ex

    digest = hashlib.sha256()
    real = ex.run_scenario

    def recording(*args, **kwargs):
        run = real(*args, **kwargs)
        for point in run.log:
            for label in point.labels:
                digest.update(repr(label).encode() + b"\n")
        return run

    monkeypatch.setattr(ex, "run_scenario", recording)
    result = explore_dfs(
        Scenario(algorithm="dynamic", nodes=3, pages=1, workload="chown", hint_period=1),
        max_schedules=50_000,
        jobs=1,  # observed from inside this process, in the sequential order
    )
    assert result.schedules == 768
    assert digest.hexdigest() == (
        "b5e3e218a0ccf21476fc4a0ab4fce902a8f094d5e393bbdd1985c5e7129a4de7"
    )


# ----------------------------------------------------------------------
# seeded mutations: caught, minimized, replayed


def mutated_scenario():
    return Scenario(
        algorithm="dynamic",
        nodes=3,
        pages=1,
        workload="mutate-upgrade",
        mutation="ghost-copyset",
    )


def test_seeded_mutation_is_caught_and_minimized():
    scenario = mutated_scenario()
    result = explore_dfs(scenario, max_schedules=50)
    assert result.violations, "the explorer must catch the seeded corruption"
    first = result.violations[0]
    assert first.rule == "invalidate-nonholder"

    small = minimize_schedule(scenario, first.choices, first.drops)
    assert small.rule == "invalidate-nonholder"
    assert len(small.choices) <= 10

    replay = run_scenario(scenario, small.choices, small.drops)
    assert (replay.status, replay.rule) == ("violation", "invalidate-nonholder")


def test_minimize_rejects_a_clean_schedule():
    scenario = Scenario(algorithm="dynamic", nodes=2, pages=1, workload="rw")
    with pytest.raises(ValueError):
        minimize_schedule(scenario, (0,))


# ----------------------------------------------------------------------
# randomized and delay strategies


def test_pct_sampling_is_clean_on_real_protocol_and_replayable():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    result = explore_pct(scenario, samples=8)
    assert result.schedules == 9  # probe + samples
    assert result.statuses == {"ok": 9}


def test_pct_sampling_catches_mutation_via_plain_replay():
    scenario = mutated_scenario()
    result = explore_pct(scenario, samples=4)
    assert result.violations
    first = result.violations[0]
    # A PCT-found schedule replays through a plain prescription.
    replay = run_scenario(scenario, first.choices, first.drops)
    assert (replay.status, replay.rule) == ("violation", first.rule)


def test_delay_injection_explores_every_single_drop_cleanly():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    result = explore_delay(scenario)
    probe = run_scenario(scenario)
    # One probe plus one schedule per frame delivery attempt.
    assert result.schedules == probe.attempts + 1
    assert result.statuses == {"ok": result.schedules}
    # Retransmission recovery genuinely perturbs the execution.
    assert result.schedules > 3


# ----------------------------------------------------------------------
# artifacts round-trip and replay


def test_artifact_round_trip_and_replay(tmp_path):
    scenario = mutated_scenario()
    result = explore_dfs(scenario, max_schedules=5)
    assert result.violations
    path = str(tmp_path / "counterexamples.jsonl")
    saved = save_counterexamples(path, scenario, result.violations)
    assert saved == len(result.violations)

    loaded_scenario, loaded = load_artifact(path)
    assert loaded_scenario == scenario
    assert loaded == result.violations

    for recorded, run in replay_artifact(path):
        assert (run.status, run.rule) == (recorded.status, recorded.rule)


def test_artifact_saved_under_the_handcoded_relation_still_replays(tmp_path):
    """Artifacts written before the certified relation became the only
    one carry ``"relation": "handcoded"``; it is provenance, nothing
    dispatches on it — they must keep loading and replaying."""
    scenario = mutated_scenario()
    result = explore_dfs(scenario, max_schedules=5)
    old = [
        Counterexample(ce.choices, ce.drops, ce.status, ce.rule, ce.detail, "handcoded")
        for ce in result.violations
    ]
    path = str(tmp_path / "old.jsonl")
    save_counterexamples(path, scenario, old, relation="handcoded")

    assert load_artifact(path) == (scenario, old)
    for recorded, run in replay_artifact(path):
        assert recorded.relation == "handcoded"
        assert (run.status, run.rule) == (recorded.status, recorded.rule)


def test_artifact_requires_scenario_header(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"kind": "schedule", "choices": [], "status": "ok"}\n')
    with pytest.raises(ValueError):
        load_artifact(str(path))


def test_counterexample_dict_round_trip():
    ce = Counterexample(
        choices=(1, 0, 2), drops=(4,), status="violation",
        rule="swmr", detail="two writers",
    )
    assert Counterexample.from_dict(ce.to_dict()) == ce


# ----------------------------------------------------------------------
# harness edge cases


def test_budget_exhaustion_is_reported_not_silent():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    result = run_scenario(scenario, max_events=5)
    assert result.status == "budget"


def test_out_of_range_prescription_clamps():
    """Mid-minimization a prescribed index can exceed the live batch;
    the scheduler clamps instead of crashing the whole exploration."""
    scenario = Scenario(algorithm="dynamic", nodes=2, pages=1, workload="rw")
    result = run_scenario(scenario, choices=(99, 99, 99))
    assert result.status == "ok"


def test_recording_scheduler_log_replays_itself():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    first = run_scenario(scenario, choices=(1,))
    again = run_scenario(scenario, choices=first.choices)
    assert again.choices == first.choices
    assert again.fingerprint == first.fingerprint
    assert again.time == first.time


def test_unknown_workload_is_rejected():
    scenario = Scenario(algorithm="dynamic", nodes=2, pages=1, workload="nope")
    with pytest.raises(ValueError):
        run_scenario(scenario)


def test_recording_scheduler_records_choice_points():
    scenario = Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw")
    sched = RecordingScheduler()
    run = run_scenario(scenario, scheduler=sched)
    assert run.log  # spawn-order ties exist at t=0
    assert all(len(cp.labels) >= 2 for cp in run.log)
    assert all(0 <= cp.chosen < len(cp.labels) for cp in run.log)
