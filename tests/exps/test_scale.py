"""The scale-out benchmark harness: job specs, the deterministic
throughput metric, the CLI's argument checks, and the committed
artifact's crossover claim."""

import pytest

from repro.exps.bench import _bench_cases
from repro.exps.presets import (
    SCALE_NODE_COUNTS,
    SCALE_PAGE_BYTES,
    pde_capacity,
    scale_fig4,
    scale_fig5,
)
from repro.exps.scale import main, run_scale, scale_jobs


def test_scale_jobs_cover_the_class_x_nodes_x_backend_grid():
    jobs = scale_jobs()
    keys = {job.key for job in jobs}
    assert len(jobs) == len(keys) == 2 * len(SCALE_NODE_COUNTS) * 2
    for klass in ("fig5", "fig4"):
        for nodes in SCALE_NODE_COUNTS:
            for backend in ("ring", "switched"):
                assert f"{klass}/n{nodes}/{backend}" in keys
    for job in jobs:
        assert job.config is not None
        assert job.config.nodes == job.nprocs
        assert job.config.svm.page_size == SCALE_PAGE_BYTES


def test_scale_presets_pick_the_backend():
    for preset in (scale_fig5, scale_fig4):
        _, _, ring_cfg = preset(64, "ring")
        _, _, sw_cfg = preset(64, "switched")
        assert ring_cfg.fabric.backend == "ring"
        assert sw_cfg.fabric.backend == "switched"


def test_fig4_preset_is_capacity_bound():
    _, args, config = scale_fig4(64, "switched")
    vector_pages = (args["m"] ** 3 * 8 + SCALE_PAGE_BYTES - 1) // SCALE_PAGE_BYTES
    # One vector does not fit; the three-vector working set is far out.
    assert config.memory.frames < 2 * vector_pages
    assert config.memory.replacement == "random"


def test_capacity_presets_keep_their_frame_counts():
    # Every capacity point shares one formula (frames = 1.8 x one
    # vector's pages); these are the counts its figures were measured at.
    configs = {
        "pde quick": pde_capacity(full=False)[2],
        "pde full": pde_capacity(full=True)[2],
        **{f"scale n{n}": scale_fig4(n, "switched")[2] for n in SCALE_NODE_COUNTS},
        "bench m=14": dict(_bench_cases())["pde_capacity_p1"].config,
    }
    assert {name: c.memory.frames for name, c in configs.items()} == {
        "pde quick": 113,
        "pde full": 194,
        "scale n64": 460,
        "scale n128": 1555,
        "scale n256": 3686,
        "bench m=14": 39,
    }
    assert {c.memory.replacement for c in configs.values()} == {"random"}


def test_eventcount_capacity_fits_a_256_node_barrier():
    from repro.sync.eventcount import waiter_capacity

    assert waiter_capacity(SCALE_PAGE_BYTES) >= 256


def test_run_scale_is_deterministic_and_switched_wins(tmp_path):
    # The smallest representative sweep: fig5+fig4 at 16 nodes (cheap),
    # exercising the real runner path end to end twice.
    doc = run_scale(nodes_list=(16,), workers=1)
    again = run_scale(nodes_list=(16,), workers=1)
    assert doc == again
    for klass in ("fig5", "fig4"):
        ring = doc["runs"][f"{klass}/n16/ring"]
        switched = doc["runs"][f"{klass}/n16/switched"]
        assert ring["events"] > 0 and switched["events"] > 0
        assert switched["time_ns"] < ring["time_ns"]


@pytest.mark.parametrize(
    "flag", [("--window-ms", "0"), ("--sample-every", "0")], ids=["window", "sampling"]
)
def test_timeline_mode_refuses_an_empty_window_or_sampling_rate(flag, tmp_path, capsys):
    # Used to die on a bare AssertionError (no timeline) and a ValueError
    # traceback from the span tracer, after creating the output directory.
    out = tmp_path / "tl"
    argv = ["--nodes", "64", "--classes", "fig5", "--backends", "switched"]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--timeline", str(out), *flag])
    assert excinfo.value.code == 2
    assert f"{flag[0]} must be" in capsys.readouterr().err
    assert not out.exists()


def test_committed_artifact_satisfies_the_acceptance_criteria():
    """BENCH_scale.json is the PR's evidence: a 256-node fig4-class run
    completes on the switched fabric, and switched events/s beats ring
    at every committed node count >= 64."""
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "BENCH_scale.json"
    doc = json.loads(path.read_text())
    runs = doc["runs"]
    assert runs["fig4/n256/switched"]["events"] > 0
    for klass in ("fig5", "fig4"):
        for nodes in SCALE_NODE_COUNTS:
            ring = runs[f"{klass}/n{nodes}/ring"]["events_per_sim_sec"]
            switched = runs[f"{klass}/n{nodes}/switched"]["events_per_sim_sec"]
            assert switched > ring
