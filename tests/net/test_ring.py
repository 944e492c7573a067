"""Unit tests for the token-ring medium model."""

import numpy as np
import pytest

from repro.config import RingConfig
from repro.net.packet import BROADCAST, Message
from repro.net.fabric.ring import TokenRing
from repro.sim.kernel import Simulator


def make_ring(nnodes=3, **cfg):
    sim = Simulator()
    config = RingConfig(**cfg)
    ring = TokenRing(sim, config, nnodes)
    inboxes = {n: [] for n in range(nnodes)}
    for n in range(nnodes):
        ring.attach(n, lambda m, n=n: inboxes[n].append(m))
    return sim, ring, inboxes


def msg(src, dst, nbytes=100, op="ping"):
    return Message(
        src=src, dst=dst, kind="req", op=op, origin=src, msg_id=1,
        payload=None, nbytes=nbytes,
    )


def test_occupancy_includes_overhead_and_wire_time():
    _, ring, _ = make_ring(bandwidth_bps=12_000_000, frame_overhead=150_000)
    # 1200 bytes -> one extra fragment (max frame 2048 keeps it at 1) and
    # 1200*8 bits / 12 Mbit/s = 800 microseconds of wire time.
    assert ring.occupancy_ns(1200) == 150_000 + 800_000


def test_large_messages_fragment():
    _, ring, _ = make_ring(frame_overhead=100_000, max_frame_bytes=1024)
    one = ring.occupancy_ns(1024)
    two = ring.occupancy_ns(1025)
    assert two - one == pytest.approx(100_000, abs=1_000)


def test_point_to_point_delivery():
    sim, ring, inboxes = make_ring()
    ring.send(msg(0, 1))
    sim.run()
    assert len(inboxes[1]) == 1
    assert inboxes[0] == [] and inboxes[2] == []


def test_transmissions_serialise_on_the_shared_medium():
    sim, ring, inboxes = make_ring(frame_overhead=100_000, delivery_latency=0)
    # Two sends at t=0: the second waits for the medium.
    ring.send(msg(0, 2, nbytes=0))
    ring.send(msg(1, 2, nbytes=0))
    occupancy = ring.occupancy_ns(32)  # header-only floor is 32B
    sim.run()
    assert sim.now >= 2 * occupancy - 1


def test_broadcast_heard_by_all_other_stations():
    sim, ring, inboxes = make_ring(nnodes=4)
    ring.send(msg(2, BROADCAST))
    sim.run()
    assert [len(inboxes[n]) for n in range(4)] == [1, 1, 0, 1]
    assert ring.stats.broadcasts == 1


def test_self_send_rejected():
    _, ring, _ = make_ring()
    with pytest.raises(ValueError):
        ring.send(msg(1, 1))


def test_unknown_destination_rejected():
    _, ring, _ = make_ring()
    with pytest.raises(ValueError):
        ring.send(msg(0, 7))


def test_loss_rate_drops_frames_deterministically():
    sim = Simulator()
    ring = TokenRing(
        sim, RingConfig(loss_rate=1.0), 2, rng=np.random.default_rng(0)
    )
    got = []
    ring.attach(0, got.append)
    ring.attach(1, got.append)
    ring.send(msg(0, 1))
    sim.run()
    assert got == []
    assert ring.stats.lost_frames == 1


def test_stats_accumulate():
    sim, ring, _ = make_ring()
    ring.send(msg(0, 1, nbytes=500))
    ring.send(msg(1, 0, nbytes=700))
    sim.run()
    assert ring.stats.messages == 2
    assert ring.stats.bytes_sent == 1200
    assert ring.stats.busy_ns == ring.occupancy_ns(500) + ring.occupancy_ns(700)


def test_double_attach_rejected():
    _, ring, _ = make_ring()
    with pytest.raises(ValueError):
        ring.attach(0, lambda m: None)
