"""Functional coherence tests across all three manager algorithms.

The data plane is real: every test moves actual bytes between simulated
nodes and checks values, so an incorrect protocol produces wrong data,
not just wrong statistics.
"""

import numpy as np
import pytest

from repro.machine.mmu import Access

from tests.svm.conftest import base, make_cluster, run_task


def test_write_then_remote_read(algorithm):
    cluster = make_cluster(nodes=3, algorithm=algorithm)
    addr = base(cluster)
    payload = np.arange(100, dtype=np.float64)

    def writer():
        yield from cluster.node(1).mem.write_array(addr, payload)

    def reader():
        got = yield from cluster.node(2).mem.read_array(addr, np.float64, 100)
        return got

    run_task(cluster, writer(), "writer")
    got = run_task(cluster, reader(), "reader")
    assert np.array_equal(got, payload)
    cluster.check_coherence_invariants()


def test_read_after_successive_writers(algorithm):
    cluster = make_cluster(nodes=4, algorithm=algorithm)
    addr = base(cluster) + 512

    def write(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)

    def read(node):
        value = yield from cluster.node(node).mem.read_i64(addr)
        return value

    for i, node in enumerate([1, 2, 3, 1, 0, 2]):
        run_task(cluster, write(node, 1000 + i), f"w{i}")
    for node in range(4):
        assert run_task(cluster, read(node), f"r{node}") == 1005
    cluster.check_coherence_invariants()


def test_multiple_read_copies_coexist(algorithm):
    cluster = make_cluster(nodes=4, algorithm=algorithm)
    addr = base(cluster)

    def writer():
        yield from cluster.node(0).mem.write_f64(addr, 3.25)

    run_task(cluster, writer(), "w")

    def reader(node):
        value = yield from cluster.node(node).mem.read_f64(addr)
        return value

    for node in (1, 2, 3):
        assert run_task(cluster, reader(node), f"r{node}") == 3.25
    page = cluster.layout.page_of(addr)
    owner_entry = cluster.node(0).table.entry(page)
    assert owner_entry.is_owner
    assert owner_entry.copy_set == {1, 2, 3}
    assert owner_entry.access is Access.READ  # owner downgraded
    cluster.check_coherence_invariants()


def test_write_invalidates_all_read_copies(algorithm):
    cluster = make_cluster(nodes=4, algorithm=algorithm)
    addr = base(cluster)

    def do(node, fn, *args):
        def gen():
            result = yield from getattr(cluster.node(node).mem, fn)(*args)
            return result

        return run_task(cluster, gen(), f"{fn}@{node}")

    do(0, "write_f64", addr, 1.0)
    for node in (1, 2, 3):
        do(node, "read_f64", addr)
    do(2, "write_f64", addr, 2.0)  # node 2 becomes owner, invalidates others
    page = cluster.layout.page_of(addr)
    for node in (0, 1, 3):
        entry = cluster.node(node).table.entry(page)
        assert entry.access is Access.NIL
        assert not entry.is_owner
        assert entry.prob_owner == 2
    new_owner = cluster.node(2).table.entry(page)
    assert new_owner.is_owner
    assert new_owner.access is Access.WRITE
    assert new_owner.copy_set == set()
    # And the data is correct everywhere afterwards.
    for node in range(4):
        assert do(node, "read_f64", addr) == 2.0
    cluster.check_coherence_invariants()


def test_cross_page_array_roundtrip(algorithm):
    cluster = make_cluster(nodes=2, algorithm=algorithm, page_size=256)
    addr = base(cluster) + 200  # straddles several 256-byte pages
    payload = np.arange(300, dtype=np.float64)  # 2400 bytes, ~10 pages

    def writer():
        yield from cluster.node(0).mem.write_array(addr, payload)

    def reader():
        got = yield from cluster.node(1).mem.read_array(addr, np.float64, 300)
        return got

    run_task(cluster, writer(), "w")
    got = run_task(cluster, reader(), "r")
    assert np.array_equal(got, payload)


def test_interleaved_writers_on_disjoint_pages(algorithm):
    cluster = make_cluster(nodes=4, algorithm=algorithm)
    page_size = cluster.config.svm.page_size

    def worker(node):
        addr = base(cluster) + node * page_size
        yield from cluster.node(node).mem.write_i64(addr, node * 11)
        value = yield from cluster.node(node).mem.read_i64(addr)
        assert value == node * 11

    tasks = [cluster.spawn_system(worker(n), f"w{n}") for n in range(4)]
    cluster.run()
    assert all(t.error is None for t in tasks)
    cluster.check_coherence_invariants()


def test_concurrent_writers_same_page_serialise(algorithm):
    """All nodes increment a shared counter location concurrently via
    atomic updates; the final value must equal the total increments."""
    cluster = make_cluster(nodes=4, algorithm=algorithm)
    addr = base(cluster)

    def bump(view):
        cell = view.view(np.int64)
        value = int(cell[0])
        cell[0] = value + 1
        return value

    def worker(node, times):
        mem = cluster.node(node).mem
        for _ in range(times):
            yield from mem.atomic_update(addr, 8, bump)

    for n in range(4):
        cluster.spawn_system(worker(n, 10), f"inc{n}")
    cluster.run()

    def read():
        value = yield from cluster.node(0).mem.read_i64(addr)
        return value

    assert run_task(cluster, read(), "check") == 40
    cluster.check_coherence_invariants()


def test_concurrent_mixed_readers_and_writers(algorithm):
    """Stress overlapping reads/writes to the same small region; the final
    state must reflect some serial order of full-block writes."""
    cluster = make_cluster(nodes=4, algorithm=algorithm)
    addr = base(cluster)
    count = 16

    def writer(node, rounds):
        mem = cluster.node(node).mem
        for r in range(rounds):
            block = np.full(count, node * 1000 + r, dtype=np.int64)
            yield from mem.write_array(addr, block)

    def reader(node, rounds):
        mem = cluster.node(node).mem
        for _ in range(rounds):
            block = yield from mem.read_array(addr, np.int64, count)
            # Single-page block write is atomic w.r.t. page ownership:
            # a read must never observe a torn block.
            assert len(set(block.tolist())) == 1, f"torn read: {block}"

    for n in (0, 1):
        cluster.spawn_system(writer(n, 8), f"w{n}")
    for n in (2, 3):
        cluster.spawn_system(reader(n, 8), f"r{n}")
    cluster.run()
    cluster.check_coherence_invariants()


def test_single_node_cluster_needs_no_messages(algorithm):
    cluster = make_cluster(nodes=1, algorithm=algorithm)
    addr = base(cluster)

    def job():
        yield from cluster.node(0).mem.write_array(
            addr, np.arange(64, dtype=np.int64)
        )
        got = yield from cluster.node(0).mem.read_array(addr, np.int64, 64)
        return got

    got = run_task(cluster, job(), "solo")
    assert np.array_equal(got, np.arange(64))
    assert cluster.fabric.stats.messages == 0


def test_ownership_forwarding_chain_under_dynamic():
    """After a chain of ownership moves, a stale hint still finds the
    owner by chasing probOwner, and hints are updated along the way."""
    cluster = make_cluster(nodes=4, algorithm="dynamic")
    addr = base(cluster)
    page = cluster.layout.page_of(addr)

    def write(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)

    # Ownership walks 0 -> 1 -> 2 -> 3; node 0 never hears about 2 or 3.
    for node, value in [(1, 11), (2, 22), (3, 33)]:
        run_task(cluster, write(node, value), f"w{node}")

    # Node 0's hint is stale (it points at 1); the fault must chase it.
    def read0():
        value = yield from cluster.node(0).mem.read_i64(addr)
        return value

    assert run_task(cluster, read0(), "r0") == 33
    assert cluster.node(0).table.entry(page).prob_owner == 3
    cluster.check_coherence_invariants()


def test_fixed_manager_distribution():
    cluster = make_cluster(nodes=3, algorithm="fixed")
    proto = cluster.node(0).protocol
    assert [proto.manager_of(p) for p in range(6)] == [0, 1, 2, 0, 1, 2]


def test_faults_counted(algorithm):
    cluster = make_cluster(nodes=2, algorithm=algorithm)
    addr = base(cluster)

    def writer():
        yield from cluster.node(0).mem.write_i64(addr, 5)

    def reader():
        value = yield from cluster.node(1).mem.read_i64(addr)
        return value

    run_task(cluster, writer(), "w")
    run_task(cluster, reader(), "r")
    assert cluster.node(1).counters["read_faults"] == 1
    assert cluster.node(0).counters["page_copies_sent"] == 1

    def writer1():
        yield from cluster.node(1).mem.write_i64(addr, 6)

    run_task(cluster, writer1(), "w1")
    assert cluster.node(1).counters["write_faults"] == 1
