"""Unit tests for counters, epoch logs and reports."""

from repro.metrics.collect import Counters, EpochLog
from repro.metrics.report import ascii_table


def test_counters_basic():
    c = Counters()
    c.inc("a")
    c.inc("a", 4)
    assert c["a"] == 5
    assert c["missing"] == 0
    assert c.snapshot() == {"a": 5}


def test_counters_merge():
    a, b = Counters(), Counters()
    a.inc("x", 2)
    b.inc("x", 3)
    b.inc("y")
    merged = Counters.merge([a, b])
    assert merged["x"] == 5 and merged["y"] == 1
    # Merge is a snapshot, not a live view.
    a.inc("x")
    assert merged["x"] == 5


def test_epoch_log_deltas_and_series():
    a, b = Counters(), Counters()
    log = EpochLog([a, b])
    a.inc("disk", 3)
    assert log.mark("e1") == {"disk": 3}
    b.inc("disk", 2)
    a.inc("other", 1)
    assert log.mark("e2") == {"disk": 2, "other": 1}
    assert log.mark("e3") == {}
    assert log.series("disk") == [("e1", 3), ("e2", 2), ("e3", 0)]


def test_epoch_deltas_are_ordered_independent_of_the_hash_seed():
    # A delta dict's key order must not come from set iteration, which
    # follows PYTHONHASHSEED: the same run must log the same epochs.
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from repro.metrics.collect import Counters, EpochLog\n"
        "c = Counters()\n"
        "log = EpochLog([c])\n"
        "for name in ('svm.read_fault', 'disk.read', 'net.msgs', 'svm.inv',\n"
        "             'disk.write', 'proc.spawn', 'alloc.malloc', 'sync.wait'):\n"
        "    c.inc(name)\n"
        "print(list(log.mark('e')))\n"
    )
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = set()
    for seed in ("0", "1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True,
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs


def test_ascii_table_alignment():
    out = ascii_table(["name", "v"], [["a", 1], ["long", 22]], title="T")
    lines = out.split("\n")
    assert lines[0] == "T"
    assert all(len(line) == len(lines[1]) for line in lines[1:])
