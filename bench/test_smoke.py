"""Smoke test of the benchmark itself (``pytest bench/``).

Outside tier-1's ``testpaths`` on purpose: it starts ~20 child processes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys

import pytest

from bench import ROOT, metrics
from bench.trace import GROUPS, Tracer

MANIFEST = metrics.manifest()


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args], cwd=ROOT, capture_output=True, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench-out")
    proc = _bench("--smoke", "--out-dir", str(out))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return proc.stdout, json.loads((out / "smoke-s1988.json").read_text(encoding="utf-8")), out


def test_every_per_layer_metric_names_its_layer():
    from bench.layers import DRIVERS

    names = {m.name for m in metrics.per_layer()}
    assert set(DRIVERS) <= names
    for name in names:
        assert metrics.layer_of(name) in (*GROUPS, "bench", "end-to-end"), name
    assert {m.name for m in metrics.per_layer() if m.exact} >= {
        "sim_time_ms", "fail_share", "sim.events", "calls_per_event.sim", "apps.speedup.sort"}
    assert not any(m.exact for m in metrics.end_to_end())


def test_printed_names_are_the_manifest_names_with_units(smoke):
    stdout, doc, _ = smoke
    assert {w["name"] for w in MANIFEST["workloads"]} == set(doc["workloads"])
    units = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}
    blocks = re.split(r"^== ", stdout, flags=re.M)[1:]
    assert len(blocks) == len(doc["workloads"]) + 1  # + the layer drivers
    from bench.layers import DRIVERS as drivers

    for block in blocks:
        printed = dict(re.findall(r"^  (\S+)\s+\S+ (\S+)", block, flags=re.M))
        expected = set(drivers) if block.startswith("layer drivers") else set(units) - set(drivers)
        assert set(printed) == expected
        for name, unit in printed.items():
            assert unit == units[name], name


def test_no_op_failed_and_passes_agree_exactly(smoke):
    _, doc, _ = smoke
    for name, result in doc["workloads"].items():
        # The determinism op compares every pass's fingerprint of the
        # exact statistics; a mismatch would be a failure here.
        assert result["failed"] == 0, (name, result["failures"])
        assert result["passes"] == 2 and result["attempted"] > 2


def test_self_shares_sum_to_one(smoke):
    _, doc, out = smoke
    for name, result in doc["workloads"].items():
        shares = [result["per_layer"][f"self_share.{g}"] for g in GROUPS]
        assert sum(shares) == pytest.approx(1.0, abs=0.01), name
        trace = json.loads((out / result["trace_file"]).read_text(encoding="utf-8"))
        assert trace["spans"][0]["name"] == "pass" and trace["buckets"].keys() == set(GROUPS)


def test_a_wrong_golden_raises_fail_share():
    """The check is live, not decorative."""
    from bench import child, workloads

    plan = workloads.plan("capacity_pde", seed=5, smoke=True)
    tracer = Tracer(enabled=False)
    shared = child.set_up(plan, 5, tracer)
    victim = plan.units[1].app
    right = victim.golden()
    victim.golden = lambda: right + 1.0
    record = child.execute(plan, shared, tracer)
    assert (record["attempted"], record["failed"]) == (3, 1)
    assert len(record["failures"]) == 1 and "pde3d/p2" in record["failures"][0]


def test_an_incomplete_sweep_is_one_failed_op():
    import dataclasses

    from bench import child, workloads

    sweep = workloads.plan("checker_stack", seed=5, smoke=True).units[1]
    plan = workloads.Plan([dataclasses.replace(sweep, expect=1)])
    tracer = Tracer(enabled=False)
    record = child.execute(plan, child.set_up(plan, 5, tracer), tracer)
    assert record["attempted"] == record["sweeps"][0]["schedules"] + 1
    assert record["failed"] == 1 and "incomplete sweep" in record["failures"][0]


def test_refuses_to_run_without_the_simulator(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "capacity_pde", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_compare_flags_a_regression(smoke, tmp_path):
    _, doc, out = smoke
    same = _bench("--compare", str(out / "smoke-s1988.json"), str(out / "smoke-s1988.json"))
    assert same.returncode == 0 and " worse" not in same.stdout, same.stdout
    # A tight synthetic wall, so the verdict does not hang on this host's noise.
    base, slower = json.loads(json.dumps(doc)), json.loads(json.dumps(doc))
    for side, scale in ((base, 1.0), (slower, 1.5)):
        side["workloads"]["checker_stack"]["end_to_end"]["wall_s"] = {
            "value": scale, "spread": 0.02 * scale, "values": [0.99 * scale, 1.01 * scale],
        }
    slower["workloads"]["lossy_ring_p4"]["per_layer"]["net.transport.retransmits"] += 1
    slower["workloads"]["capacity_pde"]["per_layer"]["sim_time_ms"] += 1.0
    for name, side in (("base", base), ("slower", slower)):
        (tmp_path / f"{name}.json").write_text(json.dumps(side), encoding="utf-8")
    worse = _bench("--compare", str(tmp_path / "base.json"), str(tmp_path / "slower.json"))
    assert worse.returncode == 1
    assert re.search(r"checker_stack\s+wall_s.*worse", worse.stdout)
    assert re.search(r"capacity_pde\s+sim_time_ms.*worse", worse.stdout)
    assert re.search(r"net\.transport\.retransmits.*worse", worse.stdout)
