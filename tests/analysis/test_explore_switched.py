"""The schedule explorer off-ring: exhaustive sweeps on the switched
fabric prove the oracle, the POR machinery and the certified
independence relation are genuinely medium-agnostic.

The switched fabric changes the *tie structure* the explorer sees —
concurrent disjoint links produce same-tick deliveries a serialising
ring cannot — so these sweeps exercise choice points the ring sweeps
never reach.  Everything else (delivery-label grammar, drop-attempt
numbering, the oracle) must behave identically.
"""

import pytest

from repro.analysis.explore import (
    Scenario,
    explore_delay,
    explore_dfs,
    run_scenario,
)

from tests.analysis.test_footprints import handcoded_reference

MANAGERS = ("centralized", "fixed", "dynamic", "broadcast")


@pytest.mark.parametrize("algorithm", MANAGERS)
def test_exhaustive_2node_1page_rw_is_clean_on_switched(algorithm):
    """The acceptance sweep of the issue: full enumeration of the
    2-node / 1-page read-write workload on the switched backend finds
    zero violations under every manager algorithm."""
    scenario = Scenario(
        algorithm=algorithm, nodes=2, pages=1, workload="rw", fabric="switched"
    )
    result = explore_dfs(scenario, max_schedules=1000)
    assert not result.truncated
    assert result.schedules >= 2
    assert result.statuses == {"ok": result.schedules}
    assert result.violations == []


def test_scenario_dict_round_trip_carries_fabric():
    scenario = Scenario(algorithm="dynamic", fabric="switched")
    assert Scenario.from_dict(scenario.to_dict()) == scenario
    # Pre-fabric artifacts (no "fabric" key) default to the ring.
    legacy = dict(scenario.to_dict())
    del legacy["fabric"]
    assert Scenario.from_dict(legacy).fabric == "ring"


def test_switched_explores_a_different_schedule_space():
    """Disjoint-link concurrency creates ties the ring serialises away:
    the contended 3-node sweep must be clean on both media but reach
    different final-state sets (the media genuinely differ)."""
    ring = explore_dfs(
        Scenario(algorithm="dynamic", nodes=3, pages=1, workload="rw"),
        max_schedules=4000,
    )
    switched = explore_dfs(
        Scenario(
            algorithm="dynamic", nodes=3, pages=1, workload="rw",
            fabric="switched",
        ),
        max_schedules=4000,
    )
    assert not ring.truncated and not switched.truncated
    assert ring.statuses == {"ok": ring.schedules}
    assert switched.statuses == {"ok": switched.schedules}
    assert switched.schedules > 1


def test_por_preserves_final_states_on_switched():
    scenario = Scenario(
        algorithm="dynamic", nodes=3, pages=1, workload="chown",
        hint_period=1, fabric="switched",
    )
    full = explore_dfs(scenario, por=False, max_schedules=4000)
    reduced = explore_dfs(scenario, por=True, max_schedules=4000)
    assert not full.truncated and not reduced.truncated
    assert full.violations == [] and reduced.violations == []
    assert reduced.schedules <= full.schedules
    assert reduced.fingerprints == full.fingerprints


@pytest.mark.parametrize("algorithm", ["dynamic", "broadcast"])
def test_certified_relation_holds_on_switched(algorithm):
    """The statically-proven commutativity matrix was derived from the
    protocol handlers, not the medium — identical verdicts and final
    states off-ring."""
    scenario = Scenario(
        algorithm=algorithm, nodes=2, pages=1, workload="rw",
        fabric="switched",
    )
    hand = explore_dfs(scenario, max_schedules=2000, relation=handcoded_reference)
    cert = explore_dfs(scenario, max_schedules=2000)
    assert cert.relation == "certified"
    assert cert.statuses == hand.statuses
    assert cert.fingerprints == hand.fingerprints
    assert hand.extractor_errors == {}
    assert cert.extractor_errors == {}


def test_delay_injection_is_clean_on_switched():
    """Every single-frame drop recovers through retransmission on the
    switched fabric too (same attempt-numbering contract)."""
    scenario = Scenario(
        algorithm="dynamic", nodes=2, pages=1, workload="rw",
        fabric="switched",
    )
    result = explore_delay(scenario)
    probe = run_scenario(scenario)
    assert result.schedules == probe.attempts + 1
    assert result.statuses == {"ok": result.schedules}


def test_mutation_still_caught_on_switched():
    """The oracle must fire off-ring exactly as it does on-ring."""
    scenario = Scenario(
        algorithm="dynamic", nodes=3, pages=1, workload="mutate-upgrade",
        mutation="ghost-copyset", fabric="switched",
    )
    result = explore_dfs(scenario, max_schedules=50)
    assert result.violations
    assert result.violations[0].rule == "invalidate-nonholder"
