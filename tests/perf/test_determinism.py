"""Schedule-preservation goldens for the wall-clock fast paths.

``golden_schedules.json`` holds ``(events_executed, time_ns)`` for
dotprod/jacobi/tsp under all three manager algorithms, captured on the
pre-fast-path tree.  The hot-path optimisations (kernel FIFO lane,
``schedule_nocancel``, the no-fault data-plane fast path, the O(1) LRU)
must be *bit-for-bit schedule-preserving*: every fixture must keep
matching exactly.  A mismatch means an optimisation changed event
ordering — a correctness bug even if the app output is right, because
the oracle, the explorer, and every committed BENCH number depend on
the schedule.

The fixtures double as a drift tripwire: any future change that alters
them must either be a bug or consciously re-capture the goldens and say
why in the commit.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.matmul import MatmulApp
from repro.apps.sort import MergeSplitSortApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig, ObsConfig

GOLDEN_PATH = Path(__file__).parent / "golden_schedules.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

APPS = {
    "dotprod": lambda p: DotProductApp(p, n=8192),
    "jacobi": lambda p: JacobiApp(p, n=48, iters=3),
    "tsp": lambda p: TspApp(p, ncities=8),
}
MANAGERS = ("centralized", "fixed", "dynamic")

#: ``golden_write_policy.json``: both write policies on the two
#: manager-table algorithms, with matmul and sort added for the
#: mapped-array (``fetch_array``/``store_array``) and record-copy paths.
POLICY_PATH = Path(__file__).parent / "golden_write_policy.json"
POLICY_GOLDEN = json.loads(POLICY_PATH.read_text())
POLICY_APPS = {
    **APPS,
    "matmul": lambda p: MatmulApp(p, n=48),
    "sort": lambda p: MergeSplitSortApp(p, nrecords=1024),
}
POLICY_CASES = [
    (app_name, manager, policy)
    for app_name in POLICY_APPS
    for manager in ("centralized", "fixed")
    for policy in ("invalidate", "update")
]


def _ivy(
    app_name: str,
    manager: str,
    nprocs: int,
    frames: int | None = None,
    replacement: str = "lru",
    obs: bool | ObsConfig = False,
    checker: bool = False,
    write_policy: str = "invalidate",
) -> Ivy:
    cfg = ClusterConfig(obs=obs).replace(nodes=nprocs).with_svm(
        algorithm=manager, write_policy=write_policy
    )
    if frames is not None:
        cfg = cfg.with_memory(frames=frames, replacement=replacement)
    if checker:
        cfg = cfg.replace(checker=True)
    app = POLICY_APPS[app_name](nprocs)
    ivy = Ivy(cfg)
    result = ivy.run(app.main)
    app.check(result)
    return ivy


def _schedule(ivy: Ivy) -> dict[str, int]:
    return {
        "events_executed": ivy.cluster.sim.events_executed,
        "time_ns": ivy.time_ns,
    }


def _run(*args, **kwargs) -> dict[str, int]:
    return _schedule(_ivy(*args, **kwargs))


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
def test_schedule_matches_golden(app_name, manager, nprocs):
    assert _run(app_name, manager, nprocs) == GOLDEN[f"{app_name}/{manager}/p{nprocs}"]


@pytest.mark.parametrize(
    "app_name,manager,write_policy",
    POLICY_CASES,
    ids=[f"{a}-{m}-{w}" for a, m, w in POLICY_CASES],
)
def test_write_policy_schedule_matches_golden(app_name, manager, write_policy):
    # The update policy stores through ``locked_store``; the invalidation
    # policy through the faulting/no-fault store loops.
    got = _run(app_name, manager, 3, write_policy=write_policy)
    assert got == POLICY_GOLDEN[f"{app_name}/{manager}/p3/{write_policy}"]


@pytest.mark.parametrize("replacement", ["lru", "random"])
def test_schedule_matches_golden_under_eviction(replacement):
    # Capacity pressure exercises lru_victim / the recency list: the O(1)
    # LRU must pick byte-identical victims to the old min-stamp scan.
    got = _run("jacobi", "dynamic", 2, frames=12, replacement=replacement)
    assert got == GOLDEN[f"jacobi/dynamic/p2/frames12-{replacement}"]


def test_observability_does_not_perturb_schedule():
    # Span tracing rides the messages; recording must not shift a tick.
    ivy = _ivy("tsp", "dynamic", 3, obs=True)
    assert _schedule(ivy) == GOLDEN["tsp/dynamic/p3"]
    assert len(ivy.obs.spans)  # actually traced something


#: Every observational feature at once: windowed timeline, per-link
#: window accounting, head-based sampling, log-bucketed histograms.
FULL_OBS = ObsConfig(timeline_window_ns=200_000_000, sample_every=4, hist_backend="logbucket")


@pytest.mark.parametrize(
    "app_name,manager,nprocs",
    CASES,
    ids=[f"{a}-{m}-p{p}" for a, m, p in CASES],
)
def test_timeline_and_sampling_preserve_schedule(app_name, manager, nprocs):
    # The tentpole's soundness claim, asserted against every ring golden:
    # with the timeline, windowed link accounting, and span sampling all
    # enabled, (events_executed, time_ns) still match bit-for-bit.
    got = _run(app_name, manager, nprocs, obs=FULL_OBS)
    assert got == GOLDEN[f"{app_name}/{manager}/p{nprocs}"]


@pytest.mark.parametrize("replacement", ["lru", "random"])
def test_timeline_preserves_schedule_under_eviction(replacement):
    got = _run(
        "jacobi", "dynamic", 2, frames=12, replacement=replacement, obs=FULL_OBS
    )
    assert got == GOLDEN[f"jacobi/dynamic/p2/frames12-{replacement}"]


def test_sampled_span_set_is_reproducible():
    # Head-based sampling is a pure hash of span ids: two identical runs
    # must keep exactly the same spans, and strictly fewer than an
    # unsampled run (i.e. the sampler actually dropped something).
    def sids(obs):
        return [span.sid for span in obs.spans]

    first_run, second_run = (_ivy("jacobi", "dynamic", 2, obs=FULL_OBS) for _ in range(2))
    assert _schedule(first_run) == _schedule(second_run)
    first, second = first_run.obs, second_run.obs
    assert sids(first) == sids(second)
    assert first.spans.dropped == second.spans.dropped > 0

    unsampled = _ivy(
        "jacobi", "dynamic", 2, obs=ObsConfig(timeline_window_ns=200_000_000)
    ).obs
    assert 0 < len(first.spans.spans) < len(unsampled.spans.spans)
    # Same sid allocation either way: the kept set is a subset.
    assert set(sids(first)) < set(sids(unsampled))


def test_timeline_and_sampling_draw_no_rng():
    # Pure observation also means *no entropy consumption*: the named
    # RNG streams must end a fully-observed run in exactly the state an
    # unobserved run leaves them (same streams, same generator state).
    def stream_states(obs):
        cfg = (
            ClusterConfig(obs=obs).replace(nodes=2).with_svm(algorithm="dynamic")
            .with_memory(frames=12, replacement="random")
        )
        app = APPS["jacobi"](2)
        ivy = Ivy(cfg)
        app.check(ivy.run(app.main))
        return {
            name: gen.bit_generator.state
            for name, gen in ivy.cluster.rngs._streams.items()
        }

    plain = stream_states(False)
    observed = stream_states(FULL_OBS)
    assert plain.keys() == observed.keys()
    assert plain == observed


@pytest.mark.parametrize("manager", MANAGERS)
def test_oracle_clean_on_fast_path_runs(manager):
    # The coherence oracle (PR 1) watches every protocol transition; a
    # fast path that skipped a transition or reordered one would trip it.
    # The checker itself must also not perturb the schedule.
    got = _run("jacobi", manager, 2, checker=True)
    assert got == GOLDEN[f"jacobi/{manager}/p2"]
