"""Span tracer unit tests: the no-op fast path, clock stamping, tree
queries, and the JSONL round-trip."""

from repro.obs import NULL_OBS, NULL_SPAN, Observability
from repro.obs.span import UNSTAMPED, Span, SpanTracer


def _clocked(start: int = 0) -> tuple[SpanTracer, list[int]]:
    tracer = SpanTracer()
    now = [start]
    tracer.bind_clock(lambda: now[0])
    return tracer, now


def test_disabled_tracer_hands_back_null_span():
    # Off, the facade hands back NULL_SPAN without reaching its tracer,
    # and a tracer ignores NULL_SPAN on close.
    span = NULL_OBS.span_begin("fault.read", node=1)
    assert span is NULL_SPAN
    tracer = SpanTracer()
    tracer.span_end(span)  # must not blow up or mutate NULL_SPAN
    NULL_OBS.span_end(span)
    assert NULL_SPAN.start == UNSTAMPED and NULL_SPAN.end == UNSTAMPED
    assert len(tracer) == 0 and len(NULL_OBS.spans) == 0


def test_disabled_span_end_is_one_call(monkeypatch):
    # Off, closing a span stops at the facade: an unobserved p=2 dot
    # product (208 span closes) never reaches the tracer, so a disabled
    # span_end costs one call, not two.
    from repro.exps.parallel import Job

    closes = []
    real = SpanTracer.span_end

    def counting(self, span, end=None):
        closes.append(span.name)
        real(self, span, end)

    monkeypatch.setattr(SpanTracer, "span_end", counting)
    res = Job("dotprod", {"n": 8192}, nprocs=2).run()
    assert not res.obs and res.events_executed > 0
    assert closes == []


def test_null_obs_is_falsy_and_silent():
    assert not NULL_OBS
    span = NULL_OBS.span_begin("fault.read", node=0)
    assert span.sid == 0
    NULL_OBS.span_end(span)
    NULL_OBS.observe("anything", 1)
    NULL_OBS.gauge("anything", 1)
    NULL_OBS.interval(0, "compute", 0, 10)
    assert len(NULL_OBS.spans) == 0
    assert NULL_OBS.metrics.histograms == {}


def test_span_ids_and_durations():
    tracer, now = _clocked()
    root = tracer.span_begin("fault.read", node=1, page=7)
    assert root.sid == 1 and root.parent == 0
    assert root.open and root.duration is None
    now[0] = 25
    tracer.span_end(root)
    assert root.end == 25 and root.duration == 25
    assert root.attrs == {"page": 7}


def test_parent_accepts_span_id_or_none():
    tracer, _ = _clocked()
    root = tracer.span_begin("fault.read", node=1)
    by_span = tracer.span_begin("rpc:svm.read", parent=root, node=1)
    by_id = tracer.span_begin("serve:svm.read", parent=by_span.sid, node=0)
    orphan = tracer.span_begin("fault.write", parent=None, node=2)
    assert by_span.parent == root.sid
    assert by_id.parent == by_span.sid
    assert orphan.parent == 0
    assert tracer.roots() == [root, orphan]
    assert tracer.children(root) == [by_span]
    assert tracer.subtree(root) == [root, by_span, by_id]


def test_explicit_start_overrides_clock():
    # Write faults start their latency clock before the span can open.
    tracer, now = _clocked(start=100)
    span = tracer.span_begin("fault.write", node=0, start=40)
    now[0] = 140
    tracer.span_end(span)
    assert span.start == 40 and span.duration == 100


def test_unbound_clock_stamps_unstamped_not_zero():
    tracer = SpanTracer()
    span = tracer.span_begin("fault.read", node=0)
    assert span.start == UNSTAMPED
    tracer.span_end(span)
    assert span.end == UNSTAMPED and span.duration is None


def test_select_matches_attrs():
    tracer, _ = _clocked()
    tracer.span_begin("fault.read", node=0, page=1)
    wanted = tracer.span_begin("fault.read", node=1, page=2)
    assert tracer.select("fault.read", page=2) == [wanted]
    assert tracer.select("fault.read", page=9) == []


def test_save_load_roundtrip(tmp_path):
    tracer, now = _clocked()
    root = tracer.span_begin("fault.read", node=1, page=3)
    child = tracer.span_begin("rpc:svm.read", parent=root, node=1)
    now[0] = 7
    tracer.span_end(child)
    now[0] = 9
    tracer.span_end(root)
    leak = tracer.span_begin("disk.read", node=0)  # stays open
    path = tmp_path / "spans.jsonl"
    assert tracer.save(str(path)) == 3

    loaded = SpanTracer.load(str(path))
    assert len(loaded) == 3
    got = loaded.get(root.sid)
    assert got is not None
    assert (got.name, got.node, got.start, got.end) == ("fault.read", 1, 0, 9)
    assert got.attrs == {"page": 3}
    assert loaded.get(child.sid).parent == root.sid
    assert loaded.open_spans()[0].sid == leak.sid
    # Loaded tracers keep allocating past the highest loaded id.
    assert loaded.span_begin("new", node=0).sid == leak.sid + 1


def test_observability_span_stats_aggregates_by_name():
    obs = Observability()
    now = [0]
    obs.bind_clock(lambda: now[0])
    for duration in (10, 20, 30):
        span = obs.span_begin("fault.read", node=0)
        now[0] += duration
        obs.span_end(span)
    open_span = obs.span_begin("disk.read", node=0)
    assert open_span.open  # open spans have no duration: excluded
    stats = obs.span_stats()
    assert set(stats) == {"fault.read"}
    assert stats["fault.read"]["count"] == 3
    assert stats["fault.read"]["total_ns"] == 60
    assert stats["fault.read"]["max_ns"] == 30
