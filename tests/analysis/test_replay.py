"""Offline replay: a recorded run round-trips through JSONL and checks
clean; corrupted streams are flagged; the CLI gates on the verdict."""

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.analysis.replay import record_stream, replay_events, replay_file, summarize
from repro.api.ivy import Ivy
from repro.apps.jacobi import JacobiApp
from repro.config import ClusterConfig
from repro.obs.jsonl import read_jsonl, write_jsonl


def record_run(tmp_path):
    ivy = Ivy(ClusterConfig(nodes=3, checker=True))
    stream = record_stream(ivy.cluster)
    app = JacobiApp(3, n=32, iters=2)
    app.check(ivy.run(app.main))
    path = tmp_path / "trace.jsonl"
    count = write_jsonl(str(path), stream)
    assert count == len(stream) > 0
    return stream, path


def stale_receipt(records):
    """Append a stale invalidation receipt (epoch going backwards)."""
    inv = [rec for rec in records if rec["category"] == "svm.inv_recv"]
    assert inv, "jacobi under invalidate policy must invalidate copies"
    last = inv[-1]
    records.append(
        {
            "time": last["time"] + 1,
            "category": "svm.inv_recv",
            "fields": {**last["fields"], "epoch": 0},
        }
    )
    return records


def test_recorded_run_replays_clean(tmp_path):
    stream, path = record_run(tmp_path)
    machine = replay_file(str(path))
    assert machine.events_seen == len(stream)
    assert machine.violations == []
    assert "no invariant violations" in summarize(machine)


def test_replay_flags_epoch_regress(tmp_path):
    """Appending a stale invalidation receipt (epoch going backwards)
    must be caught — that is the reordering bug the epochs exist for."""
    _, path = record_run(tmp_path)
    machine = replay_events(stale_receipt(read_jsonl(str(path))))
    assert any(v.rule == "epoch-regress" for v in machine.violations)


def test_replay_flags_grant_by_nonowner():
    boot = {
        "time": 0,
        "category": "cluster.boot",
        "fields": {
            "nodes": 3,
            "manager": 0,
            "algorithm": "dynamic",
            "write_policy": "invalidate",
            "page_size": 256,
        },
    }
    rogue = {
        "time": 5,
        "category": "svm.grant",
        "fields": {"node": 2, "page": 4, "to": 1, "write": False},
    }
    machine = replay_events([boot, rogue])
    assert [v.rule for v in machine.violations] == ["grant-nonowner"]


INVALIDATE_NONHOLDER = [
    {"time": 0, "category": "cluster.boot", "fields": {"nodes": 2, "manager": 0}},
    {
        "time": 1,
        "category": "svm.invalidate",
        "fields": {"node": 0, "page": 1, "targets": [1]},
    },
]


def test_replay_flags_invalidation_of_nonholder():
    machine = replay_events(INVALIDATE_NONHOLDER)
    assert [v.rule for v in machine.violations] == ["invalidate-nonholder"]


def test_replay_strict_raises_immediately():
    from repro.analysis import InvariantViolation

    with pytest.raises(InvariantViolation):
        replay_events(INVALIDATE_NONHOLDER, strict=True)


def test_cli_replay_exit_codes(tmp_path, capsys):
    _, path = record_run(tmp_path)
    assert analysis_main(["replay", str(path)]) == 0
    assert "no invariant violations" in capsys.readouterr().out

    bad = tmp_path / "bad.jsonl"
    write_jsonl(str(bad), stale_receipt(read_jsonl(str(path))))
    assert analysis_main(["replay", str(bad)]) == 1
    assert "epoch-regress" in capsys.readouterr().out


def test_cli_run_records_and_gates(tmp_path, capsys):
    path = tmp_path / "run.jsonl"
    code = analysis_main(
        ["run", "--app", "dotprod", "--nodes", "2", "--trace", str(path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "result ok" in out
    assert path.exists()
    assert analysis_main(["replay", str(path)]) == 0
