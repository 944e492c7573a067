"""Chrome trace-event exporter tests: valid JSON, monotone timestamps,
lane nesting, and the validator's teeth."""

import json

from repro.config import ObsConfig
from repro.obs import Observability
from repro.obs.export import chrome_trace, save_chrome_trace, validate_chrome_trace


def _traced_obs() -> Observability:
    obs = Observability()
    now = [0]
    obs.bind_clock(lambda: now[0])
    root = obs.span_begin("fault.read", node=1, page=3)
    rpc = obs.span_begin("rpc:svm.read", parent=root, node=1)
    serve = obs.span_begin("serve:svm.read", parent=rpc, node=0)
    now[0] = 1500
    obs.span_end(serve)
    now[0] = 2000
    obs.span_end(rpc)
    now[0] = 2500
    obs.span_end(root)
    return obs


def test_export_is_valid_json_with_monotone_ts(tmp_path):
    path = tmp_path / "trace.json"
    count = save_chrome_trace(str(path), _traced_obs())
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)  # valid JSON or this raises
    events = doc["traceEvents"]
    assert len(events) == count
    ts = [ev["ts"] for ev in events]
    assert ts == sorted(ts), "timestamps must be monotone"
    assert validate_chrome_trace(doc) == []


def test_metadata_events_come_first_and_name_nodes():
    doc = chrome_trace(_traced_obs())
    events = doc["traceEvents"]
    meta = [ev for ev in events if ev["ph"] == "M"]
    assert {ev["args"]["name"] for ev in meta} == {"node 0", "node 1"}
    first_x = next(i for i, ev in enumerate(events) if ev["ph"] == "X")
    assert all(ev["ph"] == "M" for ev in events[:first_x])


def test_units_are_microseconds_and_pid_is_node():
    doc = chrome_trace(_traced_obs())
    root = next(ev for ev in doc["traceEvents"] if ev["name"] == "fault.read")
    assert root["pid"] == 1
    assert root["ts"] == 0.0 and root["dur"] == 2.5  # 2500 ns = 2.5 us
    assert root["cat"] == "fault"
    assert root["args"]["page"] == 3


def test_same_node_children_share_their_parents_lane():
    doc = chrome_trace(_traced_obs())
    by_name = {ev["name"]: ev for ev in doc["traceEvents"] if ev["ph"] == "X"}
    # rpc child nests inside the fault root on node 1: same display lane.
    assert by_name["rpc:svm.read"]["tid"] == by_name["fault.read"]["tid"]
    # The serve span is on another node (another pid entirely).
    assert by_name["serve:svm.read"]["pid"] == 0


def test_unrelated_overlapping_spans_get_distinct_lanes():
    obs = Observability()
    now = [0]
    obs.bind_clock(lambda: now[0])
    a = obs.span_begin("fault.read", node=0)
    b = obs.span_begin("fault.write", node=0)  # overlaps a, not related
    now[0] = 10
    obs.span_end(a)
    obs.span_end(b)
    doc = chrome_trace(obs)
    lanes = {ev["name"]: ev["tid"] for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert lanes["fault.read"] != lanes["fault.write"]


def test_open_spans_export_clamped_with_marker():
    obs = Observability()
    now = [0]
    obs.bind_clock(lambda: now[0])
    obs.span_begin("disk.read", node=0)  # never closed
    doc = chrome_trace(obs, total_ns=4000)
    ev = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert ev["dur"] == 4.0
    assert ev["args"]["open"] is True
    assert validate_chrome_trace(doc) == []


def test_validator_rejects_broken_documents():
    assert validate_chrome_trace([]) != []
    assert validate_chrome_trace({}) == ["missing traceEvents list"]
    bad_phase = {"traceEvents": [
        {"name": "x", "ph": "B", "ts": 0.0, "pid": 0, "tid": 0},
    ]}
    assert any("phase" in p for p in validate_chrome_trace(bad_phase))
    non_monotone = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 5.0, "dur": 1.0, "pid": 0, "tid": 0},
        {"name": "b", "ph": "X", "ts": 1.0, "dur": 1.0, "pid": 0, "tid": 0},
    ]}
    assert any("monotone" in p for p in validate_chrome_trace(non_monotone))
    bad_dur = {"traceEvents": [
        {"name": "a", "ph": "X", "ts": 0.0, "dur": -2.0, "pid": 0, "tid": 0},
    ]}
    assert any("dur" in p for p in validate_chrome_trace(bad_dur))
    missing_key = {"traceEvents": [{"name": "a", "ph": "X", "ts": 0.0, "dur": 1.0}]}
    problems = validate_chrome_trace(missing_key)
    assert any("pid" in p for p in problems) and any("tid" in p for p in problems)


# ---------------------------------------------------------------------------
# windowed timeline exports (JSONL + OpenMetrics)


def _windowed_obs() -> tuple[Observability, int]:
    """A small observed 'run': 2 nodes, 3 windows of 1000 ns."""
    obs = Observability(ObsConfig(timeline_window_ns=1000))
    now = [0]
    obs.bind_clock(lambda: now[0])
    span = obs.span_begin("fault.read", node=0, page=7)
    now[0] = 1500
    obs.span_end(span)
    obs.observe("fanout", 3)
    obs.gauge("frames.resident", 12)
    obs.timeline.link_busy("medium", 500, 2600)
    disk = obs.span_begin("disk.read", node=1)
    now[0] = 2500
    obs.span_end(disk)
    return obs, 3000


def test_timeline_records_meta_first_sorted_and_valid(tmp_path):
    from repro.obs.export import (
        TIMELINE_SCHEMA,
        save_timeline_jsonl,
        timeline_records,
        validate_timeline_jsonl,
    )

    obs, total_ns = _windowed_obs()
    records = timeline_records(obs, 2, total_ns)
    meta = records[0]
    assert meta["kind"] == "meta" and meta["schema"] == TIMELINE_SCHEMA
    assert meta["windows"] == 3 and meta["nodes"] == 2
    kinds = {rec["kind"] for rec in records[1:]}
    assert {"hist", "counter", "link", "profile"} <= kinds
    # Deterministic order: sorted by (window, kind, name, node).
    keyed = [
        (r["window"], r["kind"], r.get("name", ""), r.get("node", -1))
        for r in records[1:]
    ]
    order = {k: i for i, k in enumerate(("hist", "counter", "gauge", "link", "profile"))}
    assert keyed == sorted(keyed, key=lambda k: (k[0], order[k[1]], k[2], k[3]))
    # Dense profile: every (node, window) pair present and partitioned.
    profiles = [r for r in records if r["kind"] == "profile"]
    assert len(profiles) == 2 * 3
    path = tmp_path / "tl.jsonl"
    count = save_timeline_jsonl(str(path), obs, 2, total_ns)
    lines = path.read_text().splitlines()
    assert len(lines) == count == len(records)
    assert validate_timeline_jsonl(lines) == []


def test_timeline_export_requires_a_timeline():
    import pytest

    from repro.obs.export import timeline_records

    with pytest.raises(ValueError):
        timeline_records(Observability(), 1, 100)


def test_timeline_validator_rejects_broken_documents():
    import json as _json

    from repro.obs.export import timeline_records, validate_timeline_jsonl

    obs, total_ns = _windowed_obs()
    lines = [_json.dumps(r) for r in timeline_records(obs, 2, total_ns)]

    assert validate_timeline_jsonl([]) == ["no records"]
    assert any("not JSON" in p for p in validate_timeline_jsonl(["{nope"]))
    # Meta must come first.
    assert any("meta" in p for p in validate_timeline_jsonl(lines[1:]))
    # Wrong schema.
    bad_meta = dict(_json.loads(lines[0]), schema="repro.timeline/999")
    problems = validate_timeline_jsonl([_json.dumps(bad_meta), *lines[1:]])
    assert any("schema" in p for p in problems)
    # A window index outside the meta's range.
    rogue = {"kind": "counter", "window": 99, "name": "x", "value": 1}
    assert any(
        "out of" in p for p in validate_timeline_jsonl([lines[0], _json.dumps(rogue)])
    )
    # Tampered profile partition: categories no longer sum to the window.
    doctored = []
    for line in lines:
        rec = _json.loads(line)
        if rec["kind"] == "profile":
            rec["idle"] += 1
        doctored.append(_json.dumps(rec))
    assert any("sum" in p for p in validate_timeline_jsonl(doctored))


def test_openmetrics_round_trip_and_families():
    from repro.obs.export import openmetrics, validate_openmetrics

    obs, total_ns = _windowed_obs()
    text = openmetrics(obs, 2, total_ns)
    assert validate_openmetrics(text) == []
    assert text.endswith("# EOF\n")
    # Whole-run summary family with quantiles and count/sum.
    assert 'repro_fanout{quantile="0.99"}' in text
    assert "repro_fanout_count 1" in text
    assert "# TYPE repro_frames_resident gauge" in text
    # Windowed series carry window labels.
    assert 'repro_tl_span_fault_read_ns_p99{window="1"}' in text
    assert 'repro_link_busy_ns{link="medium",window="0"} 500' in text
    assert 'repro_link_busy_ns{link="medium",window="1"} 1000' in text
    assert 'repro_link_utilisation{window="1"} 1.0' in text
    assert 'repro_profile_ns{node="0",category="fault",window="0"} 1000' in text


def test_openmetrics_validator_rejects_broken_expositions():
    from repro.obs.export import validate_openmetrics

    assert validate_openmetrics("") == ["empty exposition"]
    assert any("# EOF" in p for p in validate_openmetrics("# TYPE x gauge\nx 1\n"))
    no_type = "orphan 1\n# EOF\n"
    assert any("no TYPE" in p for p in validate_openmetrics(no_type))
    bad_kind = "# TYPE x histogram\nx 1\n# EOF\n"
    assert any("unsupported type" in p for p in validate_openmetrics(bad_kind))
    dup = "# TYPE x gauge\n# TYPE x gauge\nx 1\n# EOF\n"
    assert any("duplicate TYPE" in p for p in validate_openmetrics(dup))
    rogue_quantile = '# TYPE x gauge\nx{quantile="0.5"} 1\n# EOF\n'
    assert any("non-summary" in p for p in validate_openmetrics(rogue_quantile))
    bare_summary = "# TYPE x summary\nx 1\n# EOF\n"
    assert any("without quantile" in p for p in validate_openmetrics(bare_summary))
    after_eof = "# TYPE x gauge\nx 1\n# EOF\n# TYPE y gauge\n"
    assert any("after # EOF" in p for p in validate_openmetrics(after_eof))
