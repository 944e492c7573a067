"""The scale-out benchmark harness: job specs, the deterministic
throughput metric, and the committed-artifact check logic."""

import copy

from repro.exps.bench import _bench_cases
from repro.exps.presets import (
    SCALE_NODE_COUNTS,
    SCALE_PAGE_BYTES,
    pde_capacity,
    scale_fig4,
    scale_fig5,
)
from repro.exps.scale import check_scale, run_scale, scale_jobs


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
    assert doc["runs"] == again["runs"]
    assert check_scale(doc, doc) == []
    for klass in ("fig5", "fig4"):
        ring = doc["runs"][f"{klass}/n16/ring"]
        switched = doc["runs"][f"{klass}/n16/switched"]
        assert ring["events"] > 0 and switched["events"] > 0
        assert switched["time_ns"] < ring["time_ns"]


def _fake_doc():
    runs = {}
    for klass in ("fig5", "fig4"):
        for nodes in (64, 128):
            for backend, evs in (("ring", 1000.0), ("switched", 3000.0)):
                runs[f"{klass}/n{nodes}/{backend}"] = {
                    "nodes": nodes,
                    "fabric": backend,
                    "time_ns": 10**9,
                    "events": 1000 * nodes,
                    "events_per_sim_sec": evs,
                    "medium": {},
                }
    return {"schema": "repro.scale/1", "runs": runs}


def test_check_scale_passes_on_identical_docs():
    doc = _fake_doc()
    assert check_scale(doc, copy.deepcopy(doc)) == []


def test_check_scale_flags_event_drift():
    doc, base = _fake_doc(), _fake_doc()
    doc["runs"]["fig5/n64/ring"]["events"] += 1
    problems = check_scale(doc, base)
    assert len(problems) == 1
    assert "events" in problems[0] and "fig5/n64/ring" in problems[0]


def test_check_scale_flags_missing_baseline_case():
    doc, base = _fake_doc(), _fake_doc()
    del base["runs"]["fig4/n128/switched"]
    problems = check_scale(doc, base)
    assert any("not in the committed baseline" in p for p in problems)


def test_check_scale_flags_a_lost_crossover():
    doc = _fake_doc()
    doc["runs"]["fig4/n128/switched"]["events_per_sim_sec"] = 900.0
    problems = check_scale(doc, copy.deepcopy(doc))
    assert any("does not beat ring" in p for p in problems)


def test_check_scale_accepts_a_partial_sweep():
    # CI's fabric-smoke measures only 64 nodes against the full artifact.
    base = _fake_doc()
    doc = copy.deepcopy(base)
    doc["runs"] = {k: v for k, v in doc["runs"].items() if "/n64/" in k}
    assert check_scale(doc, base) == []


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
