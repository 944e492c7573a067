"""Read copies are references: readers share the owner's read-only frame.

A read grant ships the owner's frame itself as a reference-counted image
(``repro.net.pool``); the reader's frame adopts it, and the only way back
to a writable frame is the copy-on-write in ``CoherenceProtocol._grant``.
These tests pin the sharing, its read-only guarantee, the copy at an
upgrade, and that an image outlives a lost reply.
"""

import numpy as np
import pytest

from repro.api.cluster import Cluster
from repro.apps.pde3d import Pde3dApp
from repro.api.ivy import Ivy
from repro.config import ClusterConfig
from repro.sim.process import Sleep

from tests.svm.conftest import base, make_cluster, run_task


def _frames(cluster, page):
    return {
        n.node_id: n.memory.data(page) for n in cluster.nodes if page in n.memory
    }


def _read_by_two(cluster, value=7):
    addr = base(cluster)

    def seq():
        yield from cluster.node(0).mem.write_i64(addr, value)
        for reader in (1, 2):
            got = yield from cluster.node(reader).mem.read_i64(addr)
            assert got == value

    run_task(cluster, seq())
    return addr, cluster.layout.page_of(addr)


def test_readers_share_the_owners_frame():
    cluster = make_cluster(nodes=3)
    _, page = _read_by_two(cluster)
    frames = _frames(cluster, page)
    assert sorted(frames) == [0, 1, 2]
    for reader in (1, 2):
        assert np.shares_memory(frames[reader], frames[0])
    pool = cluster.fabric.pages
    assert pool.outstanding == 1 and pool.cow_copies == 0


def test_a_shared_frame_cannot_be_written_in_place():
    cluster = make_cluster(nodes=3)
    _, page = _read_by_two(cluster)
    for frame in _frames(cluster, page).values():
        with pytest.raises(ValueError):
            frame[0] = 1


def test_owner_upgrade_makes_its_frame_private():
    cluster = make_cluster(nodes=3)
    addr, page = _read_by_two(cluster)
    run_task(cluster, cluster.node(0).mem.write_i64(addr, 8))
    frames = _frames(cluster, page)
    # The invalidations dropped both readers' references first, so the
    # upgrade reclaimed the image without copying it.
    assert list(frames) == [0] and frames[0].flags.writeable
    assert cluster.fabric.pages.cow_copies == 0


def test_owner_upgrade_under_update_policy_copies_on_write():
    cluster = make_cluster(nodes=3)
    cluster = Cluster(cluster.config.with_svm(write_policy="update"))
    addr, page = _read_by_two(cluster)
    image = cluster.node(0).memory.data(page)
    run_task(cluster, cluster.node(0).mem.write_i64(addr, 8))
    frames = _frames(cluster, page)
    owner = frames.pop(0)
    assert owner.flags.writeable and not np.shares_memory(owner, image)
    # The readers kept their copies and took the pushed image in place of
    # the old one: one shared image again, distinct from the owner's frame.
    assert np.shares_memory(frames[1], frames[2])
    assert not frames[1].flags.writeable
    assert not np.shares_memory(frames[1], owner)
    assert frames[1][:8].view(np.int64)[0] == 8
    assert cluster.fabric.pages.cow_copies == 1


def test_lost_read_reply_installs_the_serve_time_image():
    # Two frames a node: the owner's later writes evict the granted page
    # to disk while the reply is lost, and recycle frames.  Only the
    # requester's reference keeps the image's bytes intact for the resend.
    cluster = make_cluster(nodes=2, frames=2)
    addr = base(cluster)
    page_size = cluster.config.svm.page_size
    dropped = []

    def drop_first_read_reply(msg, station):
        if msg.kind == "rep" and msg.op == "svm.read" and not dropped:
            dropped.append(station)
            return True
        return False

    cluster.fabric.drop_policy = drop_first_read_reply
    owner, reader = cluster.node(0), cluster.node(1)
    result = {}

    def read():
        result["value"] = yield from reader.mem.read_i64(addr)

    def write():
        yield from owner.mem.write_i64(addr, 7)
        cluster.spawn_system(read(), "reader")
        yield Sleep(cluster.config.retransmit_timeout // 2)
        for k in range(1, 4):
            yield from owner.mem.write_i64(addr + k * page_size, 100 + k)

    run_task(cluster, write())
    assert dropped == [1]
    assert owner.transport.stats.replies_resent == 1
    assert owner.counters["disk_writes"] >= 1
    assert result["value"] == 7


def test_lossy_capacity_run_stays_golden():
    # Lost frames, resent replies and page-outs together; the result and
    # the schedule are what they were when every read copy was private
    # (time and event count measured before frames were shared).
    config = (
        ClusterConfig(seed=7, nodes=4)
        .with_svm(page_size=1024)
        .with_ring(loss_rate=0.05)
        .with_memory(frames=25, replacement="random")
    )
    app = Pde3dApp(4, m=12, iters=2, seed=7)
    ivy = Ivy(config)
    app.check(ivy.run(app.main))
    nodes = ivy.cluster.nodes
    assert (ivy.time_ns, ivy.cluster.sim.events_executed) == (4_232_896_883, 1_431)
    assert sum(n.transport.stats.replies_resent for n in nodes) == 5
    assert sum(n.counters["disk_writes"] for n in nodes) == 26


class _SharingMonitor:
    """Checker stand-in: after every protocol transition, any buffer that
    frames on two or more nodes hold must be read-only."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.checks = 0
        self.shared = 0

    def on_event(self, category, time, fields):
        holders = {}
        for node in self.cluster.nodes:
            for frame in node.memory.raw_frames().values():
                holders.setdefault(id(frame), []).append(frame)
        for frames in holders.values():
            if len(frames) > 1:
                self.shared += 1
                assert not frames[0].flags.writeable
        self.checks += 1


@pytest.mark.parametrize("policy", ["invalidate", "update"])
def test_a_frame_two_nodes_hold_is_never_writable(policy):
    config = (
        ClusterConfig(seed=7, nodes=4)
        .with_svm(page_size=1024, write_policy=policy)
        .with_memory(frames=60, replacement="random")
    )
    app = Pde3dApp(4, m=10, iters=2, seed=7)
    ivy = Ivy(config)
    monitor = _SharingMonitor(ivy.cluster)
    for node in ivy.cluster.nodes:
        node.protocol.checker = monitor
    app.check(ivy.run(app.main))
    assert monitor.checks > 100 and monitor.shared > 0
