"""Integration tests for the IVY client interface: programs composed of
lightweight processes, shared memory, allocation and synchronisation."""

import numpy as np
import pytest

from repro import ClusterConfig, Ivy
from repro.sync.eventcount import EC_RECORD_BYTES


def make_ivy(nodes=4, **kw):
    config = ClusterConfig(nodes=nodes).with_svm(page_size=1024)
    for key, value in kw.items():
        config = config.replace(**{key: value})
    return Ivy(config)


def test_malloc_write_read_roundtrip():
    ivy = make_ivy(nodes=2)

    def main(ctx):
        addr = yield from ctx.malloc(8 * 100)
        yield from ctx.write_array(addr, np.arange(100, dtype=np.float64))
        out = yield from ctx.read_array(addr, np.float64, 100)
        return out

    out = ivy.run(main)
    assert np.array_equal(out, np.arange(100))
    assert ivy.time_ns > 0


def test_allocations_are_page_aligned_and_disjoint():
    ivy = make_ivy(nodes=2)

    def main(ctx):
        addrs = []
        for size in (1, 1000, 1025, 4096):
            addr = yield from ctx.malloc(size)
            addrs.append(addr)
        return addrs

    addrs = ivy.run(main)
    page = ivy.config.svm.page_size
    assert all(addr % page == 0 for addr in addrs)
    assert len(set(addrs)) == len(addrs)


def test_free_and_reuse():
    ivy = make_ivy(nodes=1)

    def main(ctx):
        a = yield from ctx.malloc(1024)
        yield from ctx.free(a)
        b = yield from ctx.malloc(1024)
        return a, b

    a, b = ivy.run(main)
    assert a == b  # first fit reuses the freed hole


def test_spawn_runs_child_processes_on_named_nodes():
    ivy = make_ivy(nodes=4)

    def child(ctx, slot_addr, value):
        # Record which processor we actually ran on.
        yield from ctx.write_i64(slot_addr, ctx.node_id * 100 + value)

    def main(ctx):
        slots = yield from ctx.malloc(8 * 4)
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)

        def wrapped(cctx, slot, value):
            yield from child(cctx, slot, value)
            yield from cctx.ec_advance(ec)

        for n in range(4):
            yield from ctx.spawn(wrapped, slots + 8 * n, n, on=n)
        yield from ctx.ec_wait(ec, 4)
        out = yield from ctx.read_array(slots, np.int64, 4)
        return out

    out = ivy.run(main)
    assert out.tolist() == [0, 101, 202, 303]


def test_eventcount_wait_before_advance_blocks():
    ivy = make_ivy(nodes=2)

    def advancer(ctx, ec, times):
        for _ in range(times):
            yield ctx.compute(1_000_000)
            yield from ctx.ec_advance(ec)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        yield from ctx.spawn(advancer, ec, 3, on=1)
        value = yield from ctx.ec_wait(ec, 3)
        final = yield from ctx.ec_read(ec)
        return value, final

    value, final = ivy.run(main)
    assert value >= 3
    assert final == 3


def test_eventcount_becomes_local_after_first_use():
    """The paper's locality claim: once the eventcount page migrates to a
    processor, further operations there cause no network traffic."""
    ivy = make_ivy(nodes=2)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        yield from ctx.ec_advance(ec)  # page now owned by node 0
        before = ivy.cluster.fabric.stats.messages
        for _ in range(5):
            yield from ctx.ec_advance(ec)
        after = ivy.cluster.fabric.stats.messages
        return before, after

    before, after = ivy.run(main)
    assert after == before


def test_shared_lock_mutual_exclusion_across_nodes():
    ivy = make_ivy(nodes=4)

    def worker(ctx, lock, cell, rounds, done_ec):
        for _ in range(rounds):
            yield from ctx.lock_acquire(lock)
            v = yield from ctx.read_i64(cell)
            yield ctx.compute(50_000)  # widen the race window
            yield from ctx.write_i64(cell, v + 1)
            yield from ctx.lock_release(lock)
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        lock = yield from ctx.malloc(1024)
        cell = yield from ctx.malloc(8)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.lock_init(lock)
        yield from ctx.ec_init(done)
        yield from ctx.write_i64(cell, 0)
        for n in range(4):
            yield from ctx.spawn(worker, lock, cell, 5, done, on=n)
        yield from ctx.ec_wait(done, 4)
        total = yield from ctx.read_i64(cell)
        return total

    assert ivy.run(main) == 20


def test_sequencer_issues_unique_tickets():
    ivy = make_ivy(nodes=3)

    def worker(ctx, seq, out_addr, slot, done_ec):
        tickets = []
        for i in range(4):
            t = yield from ctx.seq_ticket(seq)
            tickets.append(t)
        yield from ctx.write_array(
            out_addr + slot * 32, np.array(tickets, dtype=np.int64)
        )
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        seq = yield from ctx.malloc(8)
        out = yield from ctx.malloc(32 * 3)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.seq_init(seq)
        yield from ctx.ec_init(done)
        for n in range(3):
            yield from ctx.spawn(worker, seq, out, n, done, on=n)
        yield from ctx.ec_wait(done, 3)
        tickets = yield from ctx.read_array(out, np.int64, 12)
        return tickets

    tickets = ivy.run(main)
    assert sorted(tickets.tolist()) == list(range(12))


def test_barrier_synchronises_iterations():
    ivy = make_ivy(nodes=3)
    rounds = 4

    def worker(ctx, bar, log_addr, slot, done_ec):
        from repro.sync.barrier import Barrier

        barrier = ctx.barrier(bar, 3)
        for r in range(rounds):
            yield ctx.compute((slot + 1) * 250_000)  # skewed work
            yield from ctx.write_i64(log_addr + (r * 3 + slot) * 8, r)
            yield from barrier.arrive(ctx)
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        bar = yield from ctx.malloc(1024)
        log = yield from ctx.malloc(8 * 3 * rounds)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        barrier = ctx.barrier(bar, 3)
        yield from barrier.init(ctx)
        yield from ctx.ec_init(done)
        for n in range(3):
            yield from ctx.spawn(worker, bar, log, n, done, on=n)
        yield from ctx.ec_wait(done, 3)
        log_out = yield from ctx.read_array(log, np.int64, 3 * rounds)
        return log_out

    log = ivy.run(main)
    # Every round's slots completed before the next round began.
    for r in range(rounds):
        assert log[r * 3 : (r + 1) * 3].tolist() == [r, r, r]


def test_main_process_failure_propagates():
    ivy = make_ivy(nodes=1)

    def main(ctx):
        yield ctx.compute(10)
        raise RuntimeError("app bug")

    with pytest.raises(Exception) as exc_info:
        ivy.run(main)
    assert "app bug" in str(exc_info.value.__cause__)


def test_deterministic_given_seed():
    def program(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)

        def child(cctx, n):
            yield cctx.compute(1000 * n)
            yield from cctx.ec_advance(ec)

        for n in range(3):
            yield from ctx.spawn(child, n, on=n % ctx.nnodes)
        yield from ctx.ec_wait(ec, 3)
        return True

    times = []
    for _ in range(2):
        ivy = make_ivy(nodes=3, seed=77)
        ivy.run(program)
        times.append(ivy.time_ns)
    assert times[0] == times[1]
