"""Byte pins of the observability exports and CLI reports.

Every artefact a user reads from ``python -m repro.obs`` — the Chrome
trace, the span JSONL, the timeline JSONL, the OpenMetrics exposition
and the ``report``/``top``/``timeline`` stdout — is pinned here by its
sha256 for a few small runs: a sampled timeline on each fabric (the
switched one with the ``logbucket`` histogram backend), the Figure 4
capacity report at p=1, and a 2-node dot product.  Every byte is a pure
function of the simulation, so a change to ``repro.obs`` or
``repro.metrics`` that moves one fails here with the artefact's name.
A deliberate format change re-records the digests (run the CLI lines
below and ``sha256sum`` their outputs).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.obs.__main__ import main

_SLOS = [
    "--slo", "p99(fault.read_ns) < 2ms",
    "--slo", "link_utilisation < 50%",
    "--slo", "count(span.serve:svm.read.busy_ns) < 100000",
]

#: Pin name -> CLI arguments; files are written into an empty directory.
RUNS: dict[str, list[str]] = {
    "report_dotprod_p2": ["report", "--app", "dotprod", "--nodes", "2"],
    "report_pde3d_capacity_p1": [
        "report", "--app", "pde3d", "--capacity", "--nodes", "1",
    ],
    "top_dotprod_p2": ["top", "--app", "dotprod", "--nodes", "2"],
    "export_dotprod_p2": [
        "export", "--app", "dotprod", "--nodes", "2",
        "--out", "trace.json", "--spans", "spans.jsonl",
    ],
    "timeline_ring": [
        "timeline", "--app", "dotprod", "--nodes", "4", "--fabric", "ring",
        "--window-ms", "5", "--sample-every", "4", *_SLOS,
        "--out", "timeline.jsonl", "--metrics-out", "metrics.om",
    ],
    "timeline_switched": [
        "timeline", "--app", "dotprod", "--nodes", "4", "--fabric", "switched",
        "--window-ms", "5", "--sample-every", "4", "--hist-backend", "logbucket",
        *_SLOS, "--out", "timeline.jsonl", "--metrics-out", "metrics.om",
    ],
}

PINS: dict[str, str] = {
    "export_dotprod_p2/spans.jsonl":
        "9045a6c28e5db7d32083d2812e4f468132cb81c867f1b483ac7efe931adf7d14",
    "export_dotprod_p2/stdout":
        "d9e4179e964ac23e3b8a32d68a7efc508679c1857229a50933bff8d360f2ecb1",
    "export_dotprod_p2/trace.json":
        "241a1e0eb8720d8c6d0e499fd68d5897cf0a3d63aa6eac54f2e574569cbe0093",
    "report_dotprod_p2/stdout":
        "3510925d511268110f053c5cd6022f2a0b8bb7bf1071cc8341d887c3b6c08609",
    "report_pde3d_capacity_p1/stdout":
        "ebbb07fb0b714dfbc8c658cd3075b79ade5b36ae189391a5e6ccd660d7832576",
    "timeline_ring/metrics.om":
        "58ac9a951043857822d9a952c4043e29c0ed9dc15cb4a3f2d14b357f72ebbf2e",
    "timeline_ring/stdout":
        "1698b75871699efb4e8049e204a75a3e539f660f23dddc8e1db4284597e2d126",
    "timeline_ring/timeline.jsonl":
        "e624b513b66b2704fcd477a4fa0bc7745bc6a8b0b37678e57321d379f950249e",
    "timeline_switched/metrics.om":
        "7df05a20994474fcbee6228db2cb038f83029b9dc16aab98d0b181d7ecd2b9f1",
    "timeline_switched/stdout":
        "f434fbae30e55961da1b2028539bf8d6a33e19eaa36bbb72b1e2c5127a91f57a",
    "timeline_switched/timeline.jsonl":
        "398739847b32aac5d6444c5c31a85b8b4f28a0a23c194d0fd05779d9b6fdb057",
    "top_dotprod_p2/stdout":
        "54980fae69e0daf787dd5aeac12ef0f87a8b30860f16ba8b83ff00d310bb86df",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_export_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(RUNS[name]) == 0
    got = {f"{name}/stdout": _sha256(capsys.readouterr().out.encode())}
    for path in sorted(tmp_path.iterdir()):
        got[f"{name}/{path.name}"] = _sha256(path.read_bytes())
    want = {key: digest for key, digest in PINS.items() if key.startswith(f"{name}/")}
    assert got == want
