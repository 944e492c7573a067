"""Unit tests for the footprint/commutativity certification and the
explorer's certified independence relation.

Three layers:

- the effect analysis itself (real-tree certification results: every
  manager fully attributed, every declared fan-out op proven);
- the matrix consumed by the explorer (shape, :class:`CertifiedIndependence`
  semantics on synthetic labels, strict refinement over the hand-coded
  relation it replaced — kept here, test-local, as the reference);
- end-to-end equivalence: exploring under the certified relation (the
  explorer's default and only one) must reproduce the hand-coded
  reference's verdicts exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import explore as ex
from repro.analysis import explorebench as eb
from repro.analysis.static import commute, facts as facts_mod

SVM = str(Path(__file__).resolve().parents[2] / "src" / "repro" / "svm")

ALGORITHMS = {"centralized", "fixed", "dynamic", "broadcast"}

#: The fan-out set the hand-written relation shipped with.  Literal on
#: purpose: the reference must not read the op table it checks.
REFERENCE_FANOUT_OPS = frozenset({"svm.inv", "svm.update", "svm.hint", "svm.locate"})


def handcoded_reference(a: str | None, b: str | None) -> bool:
    """The hand-written independence relation the explorer shipped with
    before the certified matrix replaced it — reference implementation.

    Two deliveries commute when they target different nodes and either
    concern different pages or are both declared fan-out deliveries;
    anything unattributed conflicts with everything."""
    fa, fb = ex._delivery_footprint(a), ex._delivery_footprint(b)
    if fa is None or fb is None or fa[0] == fb[0]:
        return False
    if fa[1] != fb[1]:
        return True
    return fa[2] in REFERENCE_FANOUT_OPS and fb[2] in REFERENCE_FANOUT_OPS


@pytest.fixture(scope="module")
def summaries():
    facts = facts_mod.collect(facts_mod.load_modules([SVM]))
    findings, summaries = commute.analyze(facts)
    assert findings == []
    return summaries


@pytest.fixture(scope="module")
def matrix():
    return commute.build_matrix()


class TestRealTree:
    """The real managers discharge every certification obligation."""

    def test_every_op_attributed(self, summaries):
        for s in summaries:
            assert s.name
            ops = s.footprints.ops
            assert ops, s.class_name
            for op, fp in ops.items():
                assert fp.attributed, (s.class_name, op, fp.problems)

    def test_declared_fanout_fully_proven(self, summaries):
        for s in summaries:
            assert s.fanout_declared, s.class_name
            assert s.fanout_proven == s.fanout_declared, s.class_name

    def test_dynamic_proves_hint(self, summaries):
        dyn = next(s for s in summaries if s.name == "dynamic")
        assert "svm.hint" in dyn.fanout_proven

    def test_same_node_refinement_nonempty(self, summaries):
        for s in summaries:
            assert s.same_node_commutes, s.class_name
            # update touches the frame pool's recency order on both
            # sides, so even the refinement must not commute it with
            # itself at one node.
            assert ("svm.update", "svm.update") not in s.same_node_commutes


class TestMatrix:
    def test_shape(self, matrix):
        assert matrix["version"] == commute.MATRIX_VERSION
        assert ALGORITHMS <= set(matrix["algorithms"])
        for entry in matrix["algorithms"].values():
            for info in entry["ops"].values():
                assert set(info) == {"attributed", "projection", "handler"}
            assert set(entry["fanout_safe"]) <= set(entry["fanout_declared"])

    def test_json_round_trip(self, matrix, tmp_path):
        path = tmp_path / "matrix.json"
        commute.save_matrix(matrix, str(path))
        assert json.loads(path.read_text()) == matrix


def _label(node: int, page, op: str, uid: int) -> str:
    ptag = "p?" if page is None else f"p{page}"
    return f"deliver:n{node}:{ptag}:req:{op}:o0.{uid}"


class TestCertifiedIndependence:
    ENTRY = {
        "ops": {
            "svm.read": {"attributed": True},
            "svm.inv": {"attributed": True},
            "svm.locate": {"attributed": True},
            "svm.bad": {"attributed": False},
        },
        "fanout_safe": ["svm.inv", "svm.locate"],
        "same_node_commutes": [["svm.inv", "svm.locate"]],
    }

    @pytest.fixture()
    def rel(self):
        return ex.CertifiedIndependence(self.ENTRY)

    def test_cross_node_cross_page(self, rel):
        assert rel(_label(0, 0, "svm.read", 1), _label(1, 1, "svm.read", 2))

    def test_cross_node_same_page_needs_fanout(self, rel):
        assert rel(_label(0, 0, "svm.inv", 1), _label(1, 0, "svm.locate", 2))
        assert not rel(_label(0, 0, "svm.read", 1), _label(1, 0, "svm.inv", 2))

    def test_same_node_needs_proven_pair(self, rel):
        # In the matrix (either order), different pages: commutes.
        assert rel(_label(2, 0, "svm.inv", 1), _label(2, 1, "svm.locate", 2))
        assert rel(_label(2, 0, "svm.locate", 1), _label(2, 1, "svm.inv", 2))
        # Same page at one node never commutes.
        assert not rel(_label(2, 0, "svm.inv", 1), _label(2, 0, "svm.locate", 2))
        # Pair not in the matrix.
        assert not rel(_label(2, 0, "svm.read", 1), _label(2, 1, "svm.read", 2))

    def test_unattributed_conflicts_with_everything(self, rel):
        assert not rel(_label(0, 0, "svm.bad", 1), _label(1, 1, "svm.read", 2))

    def test_unknown_page_or_label_conflicts(self, rel):
        assert not rel(_label(0, None, "svm.read", 1), _label(1, 1, "svm.read", 2))
        assert not rel("compute:n0", _label(1, 1, "svm.read", 2))
        assert not rel(None, _label(1, 1, "svm.read", 2))

    def test_refines_handcoded_on_real_matrix(self, matrix):
        """Over the real matrix's op universe the certified relation
        commutes everything the hand-coded one does, plus same-node
        pairs the hand-coded relation refuses."""
        entry = matrix["algorithms"]["dynamic"]
        rel = ex.CertifiedIndependence(entry)
        ops = sorted(entry["ops"])
        labels = [
            _label(node, page, op, uid)
            for uid, (node, page, op) in enumerate(
                (n, p, o) for n in (0, 1) for p in (0, 1) for o in ops
            )
        ]
        strictly_finer = 0
        for a in labels:
            for b in labels:
                if a == b:
                    continue
                if handcoded_reference(a, b):
                    assert rel(a, b), (a, b)
                elif rel(a, b):
                    strictly_finer += 1
        assert strictly_finer > 0

    def test_certified_relation_loads_from_file(self, matrix, tmp_path):
        path = tmp_path / "matrix.json"
        commute.save_matrix(matrix, str(path))
        rel = ex.certified_relation("fixed", str(path))
        assert rel.name == "certified"

    def test_unknown_algorithm_raises(self, matrix):
        with pytest.raises(KeyError):
            ex.certified_relation("nope", matrix)


class TestEndToEnd:
    def test_identical_verdicts_on_contended_sweep(self):
        scenario = ex.Scenario(
            algorithm="fixed", nodes=3, pages=1, workload="chown"
        )
        hand = ex.explore_dfs(
            scenario, max_schedules=2000, relation=handcoded_reference
        )
        cert = ex.explore_dfs(scenario, max_schedules=2000)
        assert cert.relation == "certified"
        assert hand.relation == "handcoded_reference"
        assert cert.schedules <= hand.schedules
        assert cert.statuses == hand.statuses
        assert cert.fingerprints == hand.fingerprints
        # The real ops' extractors are certified: no runtime failures.
        assert hand.extractor_errors == {}
        assert cert.extractor_errors == {}

    def test_result_and_artifact_carry_relation(self, tmp_path):
        scenario = ex.Scenario(
            algorithm="centralized", nodes=2, pages=1, workload="rw"
        )
        result = ex.explore_dfs(scenario)
        path = tmp_path / "ce.jsonl"
        ex.save_counterexamples(
            str(path), scenario, result.violations, relation=result.relation
        )
        header = json.loads(path.read_text().splitlines()[0])
        assert header["relation"] == "certified"


#: What each sweep of BENCH_explore.json records: every value is a pure
#: function of the scenario, none is host time.
SWEEP_KEYS = {
    "scenario", "schedules", "events", "sleep_pruned", "truncated",
    "statuses", "states", "fingerprint_sha256", "violations",
}


class TestBenchChecks:
    """``explore-bench`` writes a record that CI diffs against the
    committed file; the command itself gates only on truncation."""

    SMALL = (ex.Scenario("fixed", 2, 1, "rw"),)

    def _cli(self, monkeypatch, argv, max_schedules=None):
        from repro.analysis.__main__ import main

        run_bench, explore_dfs = eb.run_bench, ex.explore_dfs
        monkeypatch.setattr(eb, "run_bench", lambda jobs: run_bench(self.SMALL, jobs=jobs))
        if max_schedules is not None:
            monkeypatch.setattr(
                ex, "explore_dfs",
                lambda *a, **k: explore_dfs(*a, **{**k, "max_schedules": max_schedules}),
            )
        return main(["explore-bench", *argv])

    def test_clean_bench_passes(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert self._cli(monkeypatch, ["--out", str(out)]) == 0
        assert "explore-bench ok: no sweep truncated" in capsys.readouterr().out
        monkeypatch.undo()
        record = json.loads(out.read_text())
        assert record == eb.run_bench(self.SMALL)
        assert record["schema"] == "repro.explore/2"
        assert set(record["sweeps"]["fixed-n2-p1-rw"]) == SWEEP_KEYS  # no wall_s

    def test_truncated_sweep_fails(self, monkeypatch, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert self._cli(monkeypatch, ["--out", str(out)], max_schedules=1) == 1
        stdout = capsys.readouterr().out
        assert "FAIL fixed-n2-p1-rw: truncated sweep proves nothing" in stdout
        assert "explore-bench ok" not in stdout
        assert json.loads(out.read_text())["sweeps"]["fixed-n2-p1-rw"]["truncated"]

    def test_committed_baseline_has_only_the_certified_side(self):
        """The certified relation is the explorer's only one, so the
        record names none: one flat entry per sweep of SWEEPS."""
        baseline = json.loads(
            (Path(__file__).resolve().parents[2] / "BENCH_explore.json").read_text()
        )
        assert set(baseline) == {"schema", "sweeps"}
        assert set(eb.SWEEPS) == {
            ex.Scenario.from_dict(sweep["scenario"])
            for sweep in baseline["sweeps"].values()
        }
        for sweep in baseline["sweeps"].values():
            assert set(sweep) == SWEEP_KEYS
            assert not sweep["truncated"]
