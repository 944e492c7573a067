"""Tests for the protocol extensions: broadcast owner location, the
dynamic manager's periodic hint broadcast, and data-less ownership
transfer (chown, the migration substrate)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, MILLISECOND
from repro.api.cluster import Cluster
from repro.machine.mmu import Access

from tests.svm.conftest import base, make_cluster, run_task


def test_broadcast_manager_finds_owner_with_one_broadcast():
    cluster = make_cluster(nodes=4, algorithm="broadcast")
    addr = base(cluster)

    def write(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)

    def read(node):
        v = yield from cluster.node(node).mem.read_i64(addr)
        return v

    run_task(cluster, write(1, 77), "w1")
    bcasts_before = cluster.fabric.stats.broadcasts
    assert run_task(cluster, read(3), "r3") == 77
    # One location broadcast, answered only by the owner.
    assert cluster.fabric.stats.broadcasts == bcasts_before + 1
    replies = sum(t.stats.replies_sent for t in
                  [cluster.node(n).transport for n in range(4)])
    cluster.check_coherence_invariants()


def test_broadcast_manager_never_forwards():
    cluster = make_cluster(nodes=4, algorithm="broadcast")
    addr = base(cluster)

    def churn():
        for node, value in [(1, 1), (2, 2), (3, 3), (0, 4), (2, 5)]:
            yield from cluster.node(node).mem.write_i64(addr, value)

    run_task(cluster, churn(), "churn")
    total = sum(cluster.node(n).counters["faults_forwarded"] for n in range(4))
    assert total == 0
    cluster.check_coherence_invariants()


def test_broadcast_fault_survives_ownership_handoff_window():
    """Two concurrent write faults: one lands while ownership is mid-
    transfer, gets silence from everyone, and must recover by
    retransmission (NO_REPLY answers are not cached as final)."""
    config = (
        ClusterConfig(nodes=3)
        .with_svm(algorithm="broadcast", page_size=256, shared_size=256 * 1024)
        .replace(retransmit_timeout=5 * MILLISECOND)
    )
    cluster = Cluster(config)
    addr = config.svm.shared_base

    def writer(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)

    cluster.spawn_system(writer(1, 11), "w1")
    cluster.spawn_system(writer(2, 22), "w2")
    cluster.run()

    def read():
        v = yield from cluster.node(0).mem.read_i64(addr)
        return v

    assert run_task(cluster, read(), "r") in (11, 22)
    cluster.check_coherence_invariants()


def test_dynamic_hint_broadcast_refreshes_stale_chains():
    cluster = make_cluster(nodes=4, algorithm="dynamic")
    # Enable the refinement: broadcast on every transfer (period 1).
    for node in cluster.nodes:
        node.protocol.broadcast_period = 1
    addr = base(cluster)
    page = cluster.layout.page_of(addr)

    def write(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)
        # Allow the fire-and-forget hint broadcast to land everywhere.

    for node, value in [(1, 1), (2, 2), (3, 3)]:
        run_task(cluster, write(node, value), f"w{node}")

    # Node 0 heard every refresh: its hint points at the *current* owner
    # even though it never took part in any transfer.
    assert cluster.node(0).table.entry(page).prob_owner == 3
    assert cluster.node(3).counters["hint_broadcasts"] >= 1
    # A fault from node 0 now reaches the owner without any forwarding.
    before = sum(cluster.node(n).counters["faults_forwarded"] for n in range(4))

    def read0():
        v = yield from cluster.node(0).mem.read_i64(addr)
        return v

    assert run_task(cluster, read0(), "r0") == 3
    after = sum(cluster.node(n).counters["faults_forwarded"] for n in range(4))
    assert after == before
    cluster.check_coherence_invariants()


def test_hint_broadcast_off_by_default():
    cluster = make_cluster(nodes=3, algorithm="dynamic")
    addr = base(cluster)

    def write(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)

    for node in (1, 2):
        run_task(cluster, write(node, node), f"w{node}")
    assert all(
        cluster.node(n).counters["hint_broadcasts"] == 0 for n in range(3)
    )


@pytest.mark.parametrize("algorithm", ["centralized", "fixed", "dynamic", "broadcast"])
def test_take_ownership_moves_no_page_bytes(algorithm):
    cluster = make_cluster(nodes=2, algorithm=algorithm)
    addr = base(cluster)
    page = cluster.layout.page_of(addr)

    def init():
        yield from cluster.node(0).mem.write_i64(addr, 99)

    run_task(cluster, init(), "init")
    bytes_before = cluster.fabric.stats.bytes_sent

    def chown():
        yield from cluster.node(1).protocol.take_ownership(page)

    run_task(cluster, chown(), "chown")
    moved = cluster.fabric.stats.bytes_sent - bytes_before
    page_size = cluster.config.svm.page_size
    assert moved < page_size, f"chown shipped {moved} bytes (a page is {page_size})"
    entry0 = cluster.node(0).table.entry(page)
    entry1 = cluster.node(1).table.entry(page)
    assert entry1.is_owner and entry1.access is Access.WRITE
    assert not entry0.is_owner and entry0.access is Access.NIL
    # Content is declared dead by the caller: reads now see zeros.
    def read1():
        v = yield from cluster.node(1).mem.read_i64(addr)
        return v

    assert run_task(cluster, read1(), "r1") == 0
    cluster.check_coherence_invariants()


def test_xfer_count_travels_with_ownership():
    cluster = make_cluster(nodes=3, algorithm="dynamic")
    addr = base(cluster)
    page = cluster.layout.page_of(addr)

    def write(node, value):
        yield from cluster.node(node).mem.write_i64(addr, value)

    for i, node in enumerate([1, 2, 1, 0]):
        run_task(cluster, write(node, i), f"w{i}")
    assert cluster.node(0).table.entry(page).xfer_count == 4
