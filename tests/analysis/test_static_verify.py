"""Golden-findings tests for the static verifier.

Three layers:

- every seeded mutation in ``corpus/mutations`` produces its expected
  rule id (the engine catches the bug);
- every snippet in ``corpus/clean`` produces zero findings (the engine
  accepts the protocol's real idioms);
- the real tree verifies clean end to end: acyclic wait-for graphs and
  full message coverage for all four managers, zero findings anywhere.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.static import run_default, run_explicit, to_sarif
from repro.analysis.static.__main__ import main as cli_main

CORPUS = Path(__file__).parent / "corpus"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: mutation file -> rule ids that MUST be among its findings.
EXPECTED = {
    "lock_leak.py": {"lock-balance"},
    "fastpath_leak.py": {"lock-balance"},
    "lock_in_serve_inv.py": {"lock-free-server"},
    "pw_leak.py": {"page-write-balance"},
    "span_leak.py": {"span-balance"},
    "return_in_finally.py": {"return-in-finally"},
    "discard_handle.py": {"cancel-handle"},
    "server_hold_await.py": {"hold-await-in-server", "waitfor-cycle"},
    "collective_locking.py": {"collective-locking-server", "waitfor-cycle"},
    "double_hold.py": {"multi-lock-wait"},
    "missing_handler.py": {"msg-unhandled"},
    "no_reply_path.py": {"msg-no-reply-path"},
    "noreply_unicast.py": {"msg-noreply-unicast"},
    "dead_handler.py": {"msg-dead-handler"},
    "missing_extractor.py": {"footprint-under-declared"},
    "wrong_extractor.py": {"footprint-under-declared"},
    "cross_page_write.py": {"footprint-unattributable"},
    "fanout_global_write.py": {"fanout-unproven"},
    "fanout_payload_write.py": {"footprint-unattributable", "fanout-unproven"},
    "any_unguarded_reply.py": {"aggregation-order-sensitive"},
    "wallclock.py": {"det-wallclock"},
    "unseeded_random.py": {"det-unseeded-random"},
    "fabric_unseeded_loss.py": {"det-unseeded-random"},
    "set_iteration.py": {"det-set-iteration"},
    "id_order.py": {"det-id-order"},
    "timeline_wallclock.py": {"det-wallclock"},
    "pool_recycle_set.py": {"det-set-iteration"},
}


def test_corpus_is_fully_mapped():
    on_disk = {p.name for p in (CORPUS / "mutations").glob("*.py")}
    assert on_disk == set(EXPECTED)


def test_determinism_lint_covers_the_fabric_backends():
    """The fabric subpackage executes inside simulated time, so the
    default determinism sweep must load it — a backend that slipped out
    of DETERMINISM_PATHS could reintroduce wallclock/entropy silently."""
    from repro.analysis.static import facts as facts_mod
    from repro.analysis.static.engine import DETERMINISM_PATHS

    paths = [str(REPO_ROOT / p) for p in DETERMINISM_PATHS]
    loaded = {Path(m.path).as_posix() for m in facts_mod.load_modules(paths)}
    for tail in (
        "repro/net/fabric/__init__.py",
        "repro/net/fabric/switched.py",
        "repro/net/fabric/ring.py",
    ):
        assert any(p.endswith(tail) for p in loaded), tail


def test_determinism_lint_covers_the_event_kernel_hot_path():
    """The event kernel and the message/page pools decide event order
    and envelope reuse; both must stay inside the determinism sweep —
    an id()-keyed lane or a set-backed free list would be a silent
    cross-run divergence the goldens only catch after the fact."""
    from repro.analysis.static import facts as facts_mod
    from repro.analysis.static.engine import DETERMINISM_PATHS

    paths = [str(REPO_ROOT / p) for p in DETERMINISM_PATHS]
    loaded = {Path(m.path).as_posix() for m in facts_mod.load_modules(paths)}
    for tail in (
        "repro/sim/kernel.py",
        "repro/net/pool.py",
        "repro/net/packet.py",
    ):
        assert any(p.endswith(tail) for p in loaded), tail


def test_determinism_lint_covers_the_deterministic_obs_modules():
    """Every obs and metrics module observes simulated time and none
    reads a host clock; their exports (span streams, windowed series,
    profiles, BENCH_obs.json) are asserted bit-for-bit, so the whole of
    both trees is inside the determinism sweep."""
    from repro.analysis.static import facts as facts_mod
    from repro.analysis.static.engine import DETERMINISM_PATHS

    paths = [str(REPO_ROOT / p) for p in DETERMINISM_PATHS]
    loaded = {Path(m.path).as_posix() for m in facts_mod.load_modules(paths)}
    src = REPO_ROOT / "src"
    for package in ("repro/obs", "repro/metrics"):
        for module in sorted((src / package).glob("*.py")):
            tail = module.relative_to(src).as_posix()
            assert any(p.endswith(tail) for p in loaded), tail


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_mutation_is_detected(name):
    report = run_explicit([str(CORPUS / "mutations" / name)])
    rules = {f.rule for f in report.findings}
    assert EXPECTED[name] <= rules, (name, sorted(rules))


@pytest.mark.parametrize(
    "path", sorted((CORPUS / "clean").glob("*.py")), ids=lambda p: p.name
)
def test_clean_fixture_has_zero_findings(path):
    report = run_explicit([str(path)])
    assert report.render_findings() == []


def test_findings_carry_locations():
    report = run_explicit([str(CORPUS / "mutations" / "lock_leak.py")])
    assert report.findings
    for f in report.findings:
        assert f.path.endswith("lock_leak.py")
        assert f.line > 0
        rendered = f.render()
        assert rendered.startswith(f"{f.path}:{f.line}: ")


def test_same_key_leak_is_reported_at_the_same_line_under_any_hash_seed():
    """``fastpath_leak.py`` holds ``entry.lock`` through two tokens (the
    ``try_acquire`` branch at line 2, the ``acquire`` at line 3); which
    one names the finding used to fall out of frozenset iteration order
    — line 2 under ``PYTHONHASHSEED=0``, line 3 under ``=3`` — the
    verifier's own ``det-set-iteration`` offence.  It is the first."""
    target = CORPUS / "mutations" / "fastpath_leak.py"
    outputs = []
    for hash_seed in ("0", "3"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": hash_seed,
            "PYTHONPATH": str(REPO_ROOT / "src"),
        }
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.static", str(target)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert f"{target}:2: entry.lock.acquire() may leak" in outputs[0]


class TestCleanTree:
    """The real sources discharge every proof obligation."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_default(str(REPO_ROOT))

    def test_zero_findings(self, report):
        assert report.render_findings() == []

    def test_all_managers_verified(self, report):
        names = {s.name for s in report.waitfor_summaries}
        assert {
            "CoherenceProtocol",
            "CentralizedProtocol",
            "FixedDistributedProtocol",
            "DynamicDistributedProtocol",
            "BroadcastProtocol",
        } <= names

    def test_waitfor_graphs_acyclic(self, report):
        for s in report.waitfor_summaries:
            assert s.acyclic, (s.name, s.cycle)
            # The fault ops are genuinely awaited under the entry lock —
            # the proof is about real edges, not an empty graph.
            assert {"svm.read", "svm.write"} <= set(s.held_await_ops)
            # The transient fault servers' lock edges are discharged by
            # the ownership-order axiom, not silently absent.
            assert s.discharged_ops

    def test_message_matrix_total(self, report):
        for s in report.message_summaries:
            assert s.unhandled == [], s.name
            assert s.dead == [], s.name
            assert set(s.sent_ops) <= set(s.registered_ops)

    def test_dynamic_manager_covers_hint(self, report):
        dyn = next(
            s
            for s in report.message_summaries
            if s.name == "DynamicDistributedProtocol"
        )
        assert "svm.hint" in dyn.registered_ops
        assert "svm.hint" in dyn.sent_ops


class TestReporting:
    def test_sarif_shape(self):
        report = run_explicit([str(CORPUS / "mutations" / "wallclock.py")])
        sarif = to_sarif(report.findings)
        assert sarif["version"] == "2.1.0"
        (run,) = sarif["runs"]
        assert run["tool"]["driver"]["name"] == "repro-static-verify"
        assert run["results"]
        result = run["results"][0]
        assert result["ruleId"] == "det-wallclock"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]
        assert region["artifactLocation"]["uri"].endswith("wallclock.py")

    def test_cli_exit_codes_and_sarif(self, tmp_path, capsys):
        out = tmp_path / "findings.sarif"
        rc = cli_main(
            [str(CORPUS / "mutations" / "lock_leak.py"), "--sarif", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "static-verify finding(s)" in captured.out
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"]

        rc = cli_main([str(CORPUS / "clean" / "manager.py")])
        captured = capsys.readouterr()
        assert rc == 0
        assert "static verify clean" in captured.out
        assert "EchoManager" in captured.out
