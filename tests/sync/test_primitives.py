"""Unit tests for eventcounts, locks, sequencers and barriers through the
full Ivy stack (the record layouts live in real shared pages)."""

import numpy as np
import pytest

from repro import ClusterConfig, Ivy
from repro.sync.eventcount import EC_RECORD_BYTES, EventcountFull, waiter_capacity
from repro.sync.lock import LockFull


def run_program(main, nodes=2, **cfg):
    ivy = Ivy(ClusterConfig(nodes=nodes, **cfg))
    return ivy.run(main), ivy


def test_eventcount_read_and_advance_semantics():
    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        v0 = yield from ctx.ec_read(ec)
        yield from ctx.ec_advance(ec)
        yield from ctx.ec_advance(ec)
        v2 = yield from ctx.ec_read(ec)
        # Wait on an already-reached value returns immediately.
        got = yield from ctx.ec_wait(ec, 1)
        return v0, v2, got

    (v0, v2, got), _ = run_program(main)
    assert v0 == 0 and v2 == 2 and got >= 1


def test_eventcount_wakes_multiple_waiters_at_distinct_targets():
    woken = []

    def waiter(ctx, ec, target, done):
        value = yield from ctx.ec_wait(ec, target)
        woken.append((target, value))
        yield from ctx.ec_advance(done)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        yield from ctx.ec_init(done)
        for target in (1, 2, 2, 3):
            yield from ctx.spawn(waiter, ec, target, done, on=1)
        yield ctx.compute(20_000_000)
        for _ in range(3):
            yield from ctx.ec_advance(ec)
            yield ctx.compute(20_000_000)
        yield from ctx.ec_wait(done, 4)
        return True

    result, _ = run_program(main)
    assert result
    # Each waiter released at (or after) its own target.
    assert sorted(t for t, _ in woken) == [1, 2, 2, 3]
    for target, value in woken:
        assert value >= target


def test_eventcount_waiter_table_overflow_is_loud():
    cap = waiter_capacity(1024)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)

        def sleeper(cctx):
            yield from cctx.ec_wait(ec, 10**9)

        for _ in range(cap):
            yield from ctx.spawn(sleeper)
        yield ctx.compute(500_000_000)  # let them all register
        yield from ctx.ec_wait(ec, 10**9)  # one too many

    with pytest.raises(Exception) as exc_info:
        run_program(main, nodes=1)
    assert isinstance(exc_info.value.__cause__, EventcountFull) or "waiters" in str(
        exc_info.value.__cause__
    )


def test_lock_blocks_and_hands_off_in_fifo_order():
    order = []

    def contender(ctx, lock, tag, done):
        yield from ctx.lock_acquire(lock)
        order.append(tag)
        yield ctx.compute(5_000_000)
        yield from ctx.lock_release(lock)
        yield from ctx.ec_advance(done)

    def main(ctx):
        lock = yield from ctx.malloc(1024)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.lock_init(lock)
        yield from ctx.ec_init(done)
        yield from ctx.lock_acquire(lock)  # hold so contenders queue up
        for i, node in enumerate([0, 1, 0, 1]):
            yield from ctx.spawn(contender, lock, i, done, on=node)
            yield ctx.compute(10_000_000)  # deterministic arrival order
        yield ctx.compute(50_000_000)
        yield from ctx.lock_release(lock)
        yield from ctx.ec_wait(done, 4)
        return True

    result, _ = run_program(main)
    assert result
    assert order == [0, 1, 2, 3]  # strict FIFO hand-off


def test_lock_release_of_unheld_lock_raises():
    def main(ctx):
        lock = yield from ctx.malloc(1024)
        yield from ctx.lock_init(lock)
        yield from ctx.lock_release(lock)

    with pytest.raises(Exception, match="unheld"):
        run_program(main, nodes=1)


def test_sequencer_is_dense_and_ordered():
    def main(ctx):
        seq = yield from ctx.malloc(8)
        yield from ctx.seq_init(seq)
        tickets = []
        for _ in range(5):
            t = yield from ctx.seq_ticket(seq)
            tickets.append(t)
        return tickets

    tickets, _ = run_program(main, nodes=1)
    assert tickets == [0, 1, 2, 3, 4]


def test_barrier_reusable_across_many_rounds():
    trace = []

    def party(ctx, bar_addr, tag, rounds, done):
        barrier = ctx.barrier(bar_addr, 2)
        for r in range(rounds):
            trace.append((r, tag, "before"))
            yield from barrier.arrive(ctx)
            trace.append((r, tag, "after"))
        yield from ctx.ec_advance(done)

    def main(ctx):
        bar = yield from ctx.malloc(1024)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        barrier = ctx.barrier(bar, 2)
        yield from barrier.init(ctx)
        yield from ctx.ec_init(done)
        yield from ctx.spawn(party, bar, "a", 5, done, on=0)
        yield from ctx.spawn(party, bar, "b", 5, done, on=1)
        yield from ctx.ec_wait(done, 2)
        return True

    result, _ = run_program(main)
    assert result
    # No party's round-(r+1) "after" precedes the other's round-r "before".
    for r in range(5):
        befores = [i for i, e in enumerate(trace) if e == (r, "a", "before") or e == (r, "b", "before")]
        afters = [i for i, e in enumerate(trace) if e[0] == r and e[2] == "after"]
        assert max(befores) < min(afters) + 2  # arrivals strictly precede releases


def test_barrier_on_release_fires_exactly_once_per_round():
    releases = []

    def party(ctx, bar_addr, done):
        barrier = ctx.barrier(bar_addr, 3)
        for _ in range(4):
            yield from barrier.arrive(ctx, on_release=lambda: releases.append(1))
        yield from ctx.ec_advance(done)

    def main(ctx):
        bar = yield from ctx.malloc(1024)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        barrier = ctx.barrier(bar, 3)
        yield from barrier.init(ctx)
        yield from ctx.ec_init(done)
        for node in range(3):
            yield from ctx.spawn(party, bar, done, on=node)
        yield from ctx.ec_wait(done, 3)
        return True

    result, ivy = run_program(main, nodes=3)
    assert result
    assert len(releases) == 4  # one release callback per round, total


def test_lock_waiter_overflow_is_loud():
    def main(ctx):
        lock = yield from ctx.malloc(32)  # room for one waiter only
        # Geometry: (32/8 - 2) // 2 = 1 waiter slot. Place at page end.
        page_size = ctx.node.config.svm.page_size
        lock_addr = lock + page_size - 32
        yield from ctx.lock_init(lock_addr)

        def contender(cctx):
            yield from cctx.lock_acquire(lock_addr)

        yield from ctx.lock_acquire(lock_addr)
        yield from ctx.spawn(contender)
        yield from ctx.spawn(contender)
        yield from ctx.spawn(contender)
        yield ctx.compute(500_000_000)

    with pytest.raises(Exception) as exc_info:
        run_program(main, nodes=1)
    cause = exc_info.value.__cause__
    assert isinstance(cause, LockFull) or "waiters" in str(cause)
