"""Unit tests for multicast (the invalidation transport pattern) and the
NO_REPLY handler result."""

import pytest

from repro.net.remoteop import NO_REPLY, Reply
from repro.sim.process import Compute

from tests.net.conftest import NetRig


class Heard(dict):
    """A transport's ``load_hints`` that also logs every sender it
    stores a load byte for, in arrival order."""

    def __init__(self):
        super().__init__()
        self.srcs = []

    def __setitem__(self, src, load):
        self.srcs.append(src)
        super().__setitem__(src, load)


def test_multicast_reaches_only_targets(backend="ring"):
    rig = NetRig(nnodes=5, backend=backend)
    seen = []
    for transport in rig.transports:
        transport.load_hints = Heard()

    def handler(n):
        def h(origin, payload):
            seen.append(n)
            yield Compute(10)
            return n

        return h

    for n in range(1, 5):
        rig.ops[n].register("op", handler(n))

    def client():
        replies = yield from rig.ops[0].multicast((1, 3), "op", "x")
        return replies

    task = rig.spawn(client())
    rig.run()
    assert task.result == {1: 1, 3: 3}
    assert sorted(seen) == [1, 3]
    # The fabric filtered the frame for 2 and 4: their transports were
    # never called, so they recorded no load byte from it either.
    heard = {n: transport.load_hints.srcs for n, transport in enumerate(rig.transports)}
    assert heard == {0: [1, 3], 1: [0], 2: [], 3: [0], 4: []}
    # One transmission on the ring, not one per target.
    assert rig.ring.stats.broadcasts == 1


def test_multicast_reaches_only_targets_on_switched():
    test_multicast_reaches_only_targets(backend="switched")


def test_multicast_empty_target_set_is_noop():
    rig = NetRig(nnodes=3)

    def client():
        replies = yield from rig.ops[0].multicast((), "op", None)
        return replies

    task = rig.spawn(client())
    rig.run()
    assert task.result == {}
    assert rig.ring.stats.messages == 0


def test_multicast_to_self_rejected():
    test_multicast_bad_target_set_fails_at_send("ring", (0, 1), 0)


@pytest.mark.parametrize("backend", ["ring", "switched"])
@pytest.mark.parametrize("targets,station", [((0, 2), 0), ((1, 99), 99)])
def test_multicast_bad_target_set_fails_at_send(backend, targets, station):
    """Naming the sender, or a station off the fabric, is a protocol bug:
    it must fail when the frame is sent, naming frame and station — not
    after ``max_retransmits`` timeouts with a generic TransportError."""
    rig = NetRig(nnodes=4, backend=backend)

    def client():
        yield from rig.ops[0].multicast(targets, "op", None)

    rig.ops[1].register("op", lambda o, p: iter(()))
    task = rig.spawn(client())
    with pytest.raises(Exception) as excinfo:
        rig.run()
    error = excinfo.value.__cause__ or excinfo.value
    assert isinstance(error, ValueError)
    assert f"station {station} " in str(error) and "bcast:op 0->-1" in str(error)
    assert task.error is error
    # Failed on the first transmission: no timer ever fired.
    assert rig.sim.now == rig.config.transport_cpu
    assert rig.transports[0].stats.retransmits == 0
    assert rig.ring.stats.messages == 0


def test_multicast_recovers_from_loss():
    rig = NetRig(nnodes=4, loss_rate=0.3, seed=99)
    calls = []

    def handler(n):
        def h(origin, payload):
            calls.append(n)
            yield Compute(10)
            return n * 2

        return h

    for n in (1, 2, 3):
        rig.ops[n].register("op", handler(n))

    def client():
        replies = yield from rig.ops[0].multicast((1, 2, 3), "op", None)
        return replies

    task = rig.spawn(client())
    rig.run()
    assert task.result == {1: 2, 2: 4, 3: 6}
    # At-most-once execution per target despite retransmitted broadcasts.
    assert sorted(calls) == [1, 2, 3]


def test_no_reply_keeps_any_broadcast_pending_until_a_responder():
    """Nodes answering NO_REPLY stay silent and the request is forgotten,
    so a later retransmission can be answered by a node whose state
    changed — the broadcast-manager recovery path."""
    rig = NetRig(nnodes=3)
    for t in rig.transports:
        t.config = t.config.replace(retransmit_timeout=2_000_000)
    state = {"owner": None}

    def handler(n):
        def h(origin, payload):
            yield Compute(10)
            if state["owner"] == n:
                return Reply(f"owner-{n}")
            return NO_REPLY

        return h

    for n in (1, 2):
        rig.ops[n].register("op", handler(n))

    def client():
        value = yield from rig.ops[0].broadcast("op", None, scheme="any")
        return value

    task = rig.spawn(client())
    # Nobody owns at first; ownership appears before the retransmission.
    rig.sim.schedule(1_000_000, lambda: state.update(owner=2))
    rig.run()
    assert task.result == "owner-2"
    assert rig.transports[0].stats.retransmits >= 1


def test_no_reply_to_unicast_is_a_bug():
    rig = NetRig(nnodes=2)

    def handler(origin, payload):
        yield Compute(1)
        return NO_REPLY

    rig.ops[1].register("op", handler)

    def client():
        yield from rig.ops[0].request(1, "op", None)

    rig.spawn(client())
    with pytest.raises(Exception, match="NO_REPLY"):
        rig.run()
