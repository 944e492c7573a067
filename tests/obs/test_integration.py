"""End-to-end observability invariants on real runs.

The three acceptance properties of the observability layer:

1. *Zero perturbation* — enabling observability changes neither the
   simulated runtime nor the number of events executed (hooks are pure
   observation: no scheduling, no effects, no RNG).
2. *Span-root == latency* — every ``svm.read_fault`` / ``svm.write_fault``
   transition of the recorded protocol stream belongs to a span tree
   whose root duration equals the fault's measured service latency (the
   ``ns`` field / the ``*_fault_ns`` counters).
3. *Exact attribution* — the profiler partitions each node's ``[0, T]``
   so the per-node breakdown sums to T with zero error.
"""

import json

import pytest

from repro.analysis.replay import record_stream
from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.config import ClusterConfig
from repro.obs.export import validate_chrome_trace

NPROCS = 2


def _run(obs: bool = False):
    config = ClusterConfig(nodes=NPROCS, obs=obs)
    app = DotProductApp(NPROCS, n=2048)
    ivy = Ivy(config)
    result = ivy.run(app.main)
    app.check(result)
    return ivy


def test_observability_does_not_perturb_the_simulation():
    base = _run()
    observed = _run(obs=True)
    assert observed.time_ns == base.time_ns
    assert (
        observed.cluster.sim.events_executed == base.cluster.sim.events_executed
    )
    assert observed.cluster.total_counters().snapshot() == (
        base.cluster.total_counters().snapshot()
    )


def test_every_fault_has_a_span_tree_rooted_at_its_latency():
    ivy = Ivy(ClusterConfig(nodes=NPROCS, checker=True, obs=True))
    obs = ivy.obs
    stream = record_stream(ivy.cluster)
    app = DotProductApp(NPROCS, n=2048)
    app.check(ivy.run(app.main))
    del ivy
    faults = [
        rec for rec in stream if rec["category"] in ("svm.read_fault", "svm.write_fault")
    ]
    assert faults, "a 2-node dotprod run must fault"
    roots = [s for s in obs.spans.roots() if s.name.startswith("fault.")]
    # Match each fault event to a root span closing at the event's time
    # on the faulting node, for the same page, with duration == ns.
    unmatched = list(roots)
    for rec in faults:
        kind = "fault.read" if rec["category"] == "svm.read_fault" else "fault.write"
        fields = rec["fields"]
        hit = next(
            (
                s
                for s in unmatched
                if s.name == kind
                and s.node == fields["node"]
                and s.attrs.get("page") == fields["page"]
                and s.end == rec["time"]
                and s.duration == fields["ns"]
            ),
            None,
        )
        assert hit is not None, f"no span tree for fault event {fields}"
        unmatched.remove(hit)
        # The root's tree reaches the nodes that serviced the fault.
        subtree = obs.spans.subtree(hit)
        assert all(not s.open for s in subtree)


def test_fault_latency_histograms_cross_check_the_counters():
    ivy = _run(obs=True)
    obs = ivy.obs
    totals = ivy.cluster.total_counters()
    hists = obs.metrics.histograms
    assert hists["fault.read_ns"].count == totals["read_faults"]
    assert hists["fault.read_ns"].total == totals["read_fault_ns"]
    if totals["write_faults"]:
        assert hists["fault.write_ns"].count == totals["write_faults"]
        assert hists["fault.write_ns"].total == totals["write_fault_ns"]


def test_no_spans_left_open_and_profile_sums_exactly():
    ivy = _run(obs=True)
    obs = ivy.obs
    assert obs.spans.open_spans() == []
    total = ivy.time_ns
    per_node = obs.breakdown(NPROCS, total)
    for node, counts in per_node.items():
        assert sum(counts.values()) == total, f"node {node} attribution drifted"


def test_cli_export_and_validate_roundtrip(tmp_path, capsys):
    from repro.obs.__main__ import main

    out = tmp_path / "dotprod_trace.json"
    assert main(["export", "--app", "dotprod", "--nodes", "2", "--out", str(out)]) == 0
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert validate_chrome_trace(doc) == []
    assert main(["validate", str(out)]) == 0
    assert "valid trace-event JSON" in capsys.readouterr().out


def test_cli_report_and_top(capsys):
    from repro.obs.__main__ import main

    assert main(["report", "--app", "dotprod", "--nodes", "2"]) == 0
    out = capsys.readouterr().out
    assert "fault.read_ns" in out  # instruments table
    assert "compute" in out  # profile table
    assert main(["top", "--app", "dotprod", "--nodes", "2"]) == 0
    assert "fault.read" in capsys.readouterr().out


def test_cli_validate_rejects_garbage(tmp_path, capsys):
    from repro.obs.__main__ import main

    bad = tmp_path / "bad.json"
    bad.write_text('{"traceEvents": [{"ph": "X"}]}')
    assert main(["validate", str(bad)]) == 1
    assert "missing" in capsys.readouterr().out


def test_config_obs_flag_enables_a_private_bundle():
    ivy = _run()  # default: shared NULL_OBS
    assert not ivy.obs
    config = ClusterConfig(nodes=NPROCS, obs=True)
    app = DotProductApp(NPROCS, n=2048)
    observed = Ivy(config)
    observed.run(app.main)
    assert observed.obs
    assert len(observed.obs.spans) > 0
    # The shared disabled instance never accumulates state.
    from repro.obs import NULL_OBS

    assert len(NULL_OBS.spans) == 0


@pytest.mark.parametrize(
    "algorithm", ["centralized", "fixed", "dynamic", "broadcast"]
)
def test_all_manager_algorithms_close_their_spans(algorithm):
    config = ClusterConfig(nodes=NPROCS, obs=True).with_svm(algorithm=algorithm)
    app = DotProductApp(NPROCS, n=1024)
    ivy = Ivy(config)
    app.check(ivy.run(app.main))
    obs = ivy.obs
    assert obs.spans.open_spans() == []
    assert [s for s in obs.spans.roots() if s.name.startswith("fault.")]


def test_every_obs_config_field_reaches_the_handle():
    from repro.config import ObsConfig
    from repro.metrics.hist import LogBucketHistogram

    settings = ObsConfig(timeline_window_ns=5_000_000, sample_every=8, hist_backend="logbucket")
    ivy = Ivy(ClusterConfig(nodes=NPROCS, obs=settings))
    app = DotProductApp(NPROCS, n=2048)
    app.check(ivy.run(app.main))
    assert ivy.obs.timeline.window_ns == 5_000_000
    assert ivy.obs.spans.sample_every == 8
    assert isinstance(ivy.obs.metrics.histograms["fault.read_ns"], LogBucketHistogram)


def test_the_handle_follows_the_value_of_cluster_config_obs():
    from repro.config import ConfigError, ObsConfig
    from repro.obs import Observability

    assert not Observability(False)
    assert Observability() and Observability(True).timeline is None
    assert Observability(ObsConfig(timeline_window_ns=10)).timeline.window_ns == 10
    with pytest.raises(ConfigError) as excinfo:
        Observability(ObsConfig(timeline_window_ns=-5))
    assert excinfo.value.field == "obs.timeline_window_ns"


@pytest.mark.parametrize("clone", ["deepcopy", "pickle"])
def test_a_copied_handle_records_into_its_own_stores(clone):
    """An enabled handle's ``span_begin`` and ``interval`` are its
    tracer's and profiler's own methods: a deep copy, or a finished
    result pickled back from a worker, records into the copy's stores."""
    import copy
    import pickle

    from repro.config import ObsConfig
    from repro.exps.parallel import Job

    config = ClusterConfig(obs=ObsConfig(timeline_window_ns=1_000_000))
    obs = Job("dotprod", {"n": 2048}, nprocs=NPROCS, config=config).run().obs
    copied = copy.deepcopy(obs) if clone == "deepcopy" else pickle.loads(pickle.dumps(obs))
    spans, intervals = len(obs.spans), obs.breakdown(NPROCS, 10**12)
    span = copied.span_begin("fault.read", node=0, start=10**12)
    copied.span_end(span, end=2 * 10**12)
    copied.interval(1, "compute", 10**12, 2 * 10**12)
    assert len(copied.spans) == spans + 1 and len(obs.spans) == spans
    assert obs.breakdown(NPROCS, 10**12) == intervals
    assert copied.breakdown(NPROCS, 2 * 10**12)[1]["compute"] > intervals[1]["compute"]
    window = 10**12 // 1_000_000
    assert copied.timeline.counters["span.fault.read.busy_ns"][window] == 1_000_000
    assert window not in obs.timeline.counters["span.fault.read.busy_ns"]


@pytest.mark.parametrize(
    "argv,field",
    [
        (["report", "--nodes", "0"], "nodes"),
        (["report", "--sample-every", "0"], "obs.sample_every"),
        (["report", "--algorithm", "bogus"], "svm.algorithm"),
        # A window that would truncate to 0 ns is refused before anything
        # runs, as `exps.scale --timeline` refuses it; 0 keeps meaning "no
        # timeline" everywhere but `timeline`.
        (["timeline", "--window-ms", "0.0000001"], "--window-ms"),
        (["timeline", "--window-ms", "0"], "--window-ms"),
        (["report", "--window-ms", "0.0000001"], "--window-ms"),
        (["export", "--window-ms", "-5"], "--window-ms"),
        (["top", "--window-ms", "-0.0000001"], "--window-ms"),
        # The frame bound is sized for pde3d's working set.
        (["report", "--app", "dotprod", "--capacity"], "--capacity"),
        (["top", "--app", "tsp", "--capacity"], "--capacity"),
    ],
    ids=[
        "nodes", "sample-every", "algorithm", "timeline-sub-ns", "timeline-zero",
        "report-sub-ns", "export-negative", "top-negative", "capacity-dotprod", "capacity-tsp",
    ],
)
def test_cli_bad_flag_is_a_usage_error(argv, field, capsys):
    from repro.obs.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert f"error: {field}" in line or f"error: unknown {field}" in line
    assert "Traceback" not in err


def test_analysis_cli_bad_nodes_is_a_usage_error(capsys):
    from repro.analysis.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--nodes", "0"])
    assert excinfo.value.code == 2
    assert "error: nodes must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.fixture(scope="module")
def timeline_exports(tmp_path_factory):
    """A windowed 2-node run's timeline JSONL and OpenMetrics exports."""
    from repro.obs.__main__ import main

    out = tmp_path_factory.mktemp("exports")
    jsonl, om = out / "run.jsonl", out / "run.om"
    argv = ["timeline", "--nodes", "2", "--window-ms", "5",
            "--out", str(jsonl), "--metrics-out", str(om)]
    assert main(argv) == 0
    return jsonl, om


def test_cli_validate_reads_timeline_jsonl_from_its_content(timeline_exports, capsys):
    from repro.obs.__main__ import main

    jsonl, _ = timeline_exports
    capsys.readouterr()
    assert main(["validate", str(jsonl)]) == 0
    assert "valid timeline JSONL" in capsys.readouterr().out


def test_cli_validate_rejects_broken_timeline_jsonl(timeline_exports, tmp_path, capsys):
    from repro.obs.__main__ import main

    jsonl, _ = timeline_exports
    meta = jsonl.read_text().splitlines()[0]
    bad = tmp_path / "bad.jsonl"
    bad.write_text(meta + '\n{"kind": "nonsense"}\n')
    assert main(["validate", str(bad)]) == 1
    assert "problem(s) in timeline JSONL" in capsys.readouterr().out


def test_cli_validate_reads_openmetrics_from_its_content(timeline_exports, capsys):
    from repro.obs.__main__ import main

    _, om = timeline_exports
    capsys.readouterr()
    assert main(["validate", str(om)]) == 0
    assert "valid OpenMetrics exposition" in capsys.readouterr().out


def test_cli_validate_rejects_broken_openmetrics(timeline_exports, tmp_path, capsys):
    from repro.obs.__main__ import main

    _, om = timeline_exports
    bad = tmp_path / "bad.om"
    bad.write_text(om.read_text().replace("# EOF\n", ""))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "must end with '# EOF'" in out and "problem(s) in OpenMetrics" in out


def test_cli_timeline_fails_on_violation_only_when_asked(capsys):
    from repro.obs.__main__ import main

    argv = ["timeline", "--nodes", "2", "--window-ms", "5", "--slo", "p99(fault.read_ns) < 1us"]
    assert main(argv) == 0
    assert main([*argv, "--fail-on-violation"]) == 1
    assert main(["timeline", "--nodes", "2", "--fail-on-violation"]) == 0  # no --slo
