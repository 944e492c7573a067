"""Golden determinism fixtures for the switched fabric.

``golden_switched.json`` holds ``(events_executed, time_ns)`` for
dotprod/jacobi/tsp under the centralized, dynamic, and broadcast
managers on ``SwitchedFabric`` — the broadcast manager matters most
here, because its owner-location broadcasts ride the multicast tree
(real fan-out cost) instead of free ring snooping.

Together with ``test_determinism.py`` (which pins the default ring
backend bit-for-bit) these fixtures prove the fabric abstraction is a
*medium* swap, not a behaviour change: both backends are exactly
reproducible, and tuning one cannot silently drift the other.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig, ObsConfig

GOLDEN_PATH = Path(__file__).parent / "golden_switched.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

APPS = {
    "dotprod": lambda p: DotProductApp(p, n=8192),
    "jacobi": lambda p: JacobiApp(p, n=48, iters=3),
    "tsp": lambda p: TspApp(p, ncities=8),
}
MANAGERS = ("centralized", "dynamic", "broadcast")


def _ivy(
    app_name: str, manager: str, nprocs: int, checker: bool = False,
    obs: bool | ObsConfig = False,
) -> Ivy:
    cfg = (
        ClusterConfig(obs=obs)
        .replace(nodes=nprocs)
        .with_svm(algorithm=manager)
        .with_fabric(backend="switched")
    )
    if checker:
        cfg = cfg.replace(checker=True)
    app = APPS[app_name](nprocs)
    ivy = Ivy(cfg)
    result = ivy.run(app.main)
    app.check(result)
    return ivy


def _run(*args, **kwargs) -> dict[str, int]:
    ivy = _ivy(*args, **kwargs)
    return {
        "events_executed": ivy.cluster.sim.events_executed,
        "time_ns": ivy.time_ns,
    }


CASES = [
    (app_name, manager, p)
    for app_name in APPS
    for manager in MANAGERS
    for p in (2, 3)
]


@pytest.mark.parametrize(
    "app_name,manager,nprocs",
    CASES,
    ids=[f"{a}-{m}-p{p}" for a, m, p in CASES],
)
def test_switched_schedule_matches_golden(app_name, manager, nprocs):
    assert _run(app_name, manager, nprocs) == GOLDEN[f"{app_name}/{manager}/p{nprocs}"]


@pytest.mark.parametrize(
    "app_name,manager,nprocs",
    CASES,
    ids=[f"{a}-{m}-p{p}" for a, m, p in CASES],
)
def test_timeline_and_sampling_preserve_switched_schedule(app_name, manager, nprocs):
    # Pure-observation proof on the switched backend: per-port window
    # accounting in _hop, the timeline, and head-based span sampling
    # must not move a single tick on any golden fixture.
    obs = ObsConfig(timeline_window_ns=200_000_000, sample_every=4, hist_backend="logbucket")
    got = _run(app_name, manager, nprocs, obs=obs)
    assert got == GOLDEN[f"{app_name}/{manager}/p{nprocs}"]


def test_switched_timeline_sees_port_links():
    # The windowed link series really is per-port on this backend.
    ivy = _ivy("dotprod", "dynamic", 2, obs=ObsConfig(timeline_window_ns=200_000_000))
    links = ivy.obs.timeline.links
    assert any(name.startswith("tx[") for name in links)
    assert any(name.startswith("rx[") for name in links)


def test_oracle_clean_and_schedule_preserving_on_switched():
    # The coherence oracle watches every transition; it must neither
    # fire nor perturb the schedule on the switched backend.
    got = _run("jacobi", "broadcast", 2, checker=True)
    assert got == GOLDEN["jacobi/broadcast/p2"]


def test_backends_really_differ():
    # Sanity: the fixtures are not accidentally ring numbers.
    ring_golden = json.loads(
        (Path(__file__).parent / "golden_schedules.json").read_text()
    )
    assert (
        GOLDEN["dotprod/dynamic/p2"]["time_ns"]
        != ring_golden["dotprod/dynamic/p2"]["time_ns"]
    )
