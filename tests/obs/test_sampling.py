"""Deterministic head-based sampling: pure hash, drop propagation,
and the accounting contract for dropped spans."""

import pytest

from repro.config import ObsConfig
from repro.obs import Observability
from repro.obs.sample import keep_root, mix64
from repro.obs.span import SpanTracer


def test_mix64_is_a_pure_64bit_function():
    assert mix64(1) == mix64(1)
    assert mix64(1) != mix64(2)
    for x in (0, 1, 2**63, 2**64 - 1):
        assert 0 <= mix64(x) < 2**64


def test_keep_root_rate_roughly_matches_and_is_stable():
    kept = [sid for sid in range(1, 10_001) if keep_root(sid, 64)]
    # A pure hash at rate 1/64 over 10k ids: expect ~156, allow slack.
    assert 100 <= len(kept) <= 220
    assert kept == [sid for sid in range(1, 10_001) if keep_root(sid, 64)]
    assert all(keep_root(sid, 1) for sid in range(1, 100))


def test_tracer_rejects_bad_rate():
    with pytest.raises(ValueError):
        SpanTracer(sample_every=0)


def test_sampled_out_root_gets_negative_sid_and_is_not_recorded():
    tracer = SpanTracer(sample_every=2)
    tracer.bind_clock(lambda: 100)
    roots = [tracer.span_begin(f"r{i}", node=0) for i in range(64)]
    dropped = [s for s in roots if s.sid < 0]
    kept = [s for s in roots if s.sid > 0]
    assert dropped and kept
    assert tracer.dropped == len(dropped)
    assert [s.sid for s in tracer.spans] == [s.sid for s in kept]
    # sid allocation is identical with or without sampling: the kept
    # sids are a subset of the 1..64 sequence, not a renumbering.
    assert {abs(s.sid) for s in roots} == set(range(1, 65))


def test_drop_propagates_to_children_via_negative_parent():
    tracer = SpanTracer(sample_every=2)
    tracer.bind_clock(lambda: 0)
    roots = [tracer.span_begin(f"r{i}", node=0) for i in range(32)]
    victim = next(s for s in roots if s.sid < 0)
    child = tracer.span_begin("child", parent=victim, node=1)
    grandchild = tracer.span_begin("gc", parent=child.sid, node=1)
    assert child.sid < 0 and grandchild.sid < 0
    # Kept parents keep their subtree.
    survivor = next(s for s in roots if s.sid > 0)
    kid = tracer.span_begin("kid", parent=survivor, node=1)
    assert kid.sid > 0


def test_span_end_still_stamps_dropped_spans():
    tracer = SpanTracer(sample_every=2)
    now = [0]
    tracer.bind_clock(lambda: now[0])
    roots = [tracer.span_begin(f"r{i}", node=0) for i in range(32)]
    victim = next(s for s in roots if s.sid < 0)
    now[0] = 500
    tracer.span_end(victim)
    assert victim.end == 500  # accounting still sees the interval


def test_dropped_categorized_spans_reach_the_profiler():
    # The tentpole's completeness guarantee: sampling must not bias the
    # profiler's attribution, only the kept span *records*.
    def run(sample_every):
        obs = Observability(ObsConfig(sample_every=sample_every))
        now = [0]
        obs.bind_clock(lambda: now[0])
        for i in range(64):
            span = obs.span_begin("fault.read", node=0, page=i)
            now[0] += 1000
            obs.span_end(span)
        return obs

    sampled, full = run(64), run(1)
    assert len(sampled.spans.spans) < len(full.spans.spans)
    got = sampled.breakdown(nnodes=1, total_ns=64_000)
    want = full.breakdown(nnodes=1, total_ns=64_000)
    assert got == want  # identical fault attribution despite drops


def test_dropped_spans_reach_the_timeline():
    def run(sample_every):
        obs = Observability(ObsConfig(timeline_window_ns=1000, sample_every=sample_every))
        now = [0]
        obs.bind_clock(lambda: now[0])
        for i in range(64):
            span = obs.span_begin("fault.read", node=0, page=i)
            now[0] += 500
            obs.span_end(span)
        return dict(obs.timeline.counters["span.fault.read.busy_ns"])

    assert run(64) == run(1)  # windowed series identical despite drops
