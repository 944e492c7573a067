"""Integration tests for transport + remote operations.

Covers the features the paper calls out explicitly: request/reply,
forwarding chains with a single final reply, broadcast with the three
reply schemes, reply-only retransmission under frame loss, and
piggybacked load hints.
"""

import pytest

from repro.config import ClusterConfig
from repro.net.remoteop import Forward, Reply
from repro.net.transport import TransportError
from repro.sim.process import Compute, TaskFailure

from tests.net.conftest import NetRig


def echo_handler(origin, payload):
    yield Compute(1_000)
    return ("echo", origin, payload)


def test_request_reply_roundtrip(rig):
    rig.ops[1].register("echo", echo_handler)

    def client():
        value = yield from rig.ops[0].request(1, "echo", {"x": 42})
        return value

    task = rig.spawn(client())
    rig.run()
    assert task.result == ("echo", 0, {"x": 42})


def test_local_request_skips_the_ring(rig):
    rig.ops[0].register("echo", echo_handler)

    def client():
        value = yield from rig.ops[0].request(0, "echo", "self")
        return value

    task = rig.spawn(client())
    rig.run()
    assert task.result == ("echo", 0, "self")
    assert rig.ring.stats.messages == 0


def test_forwarding_chain_single_reply_to_origin():
    rig = NetRig(nnodes=4)
    hops = []

    def forwarder(next_node):
        def handler(origin, payload):
            hops.append(rig_node_of(handler))
            return Forward(next_node)
            yield  # pragma: no cover

        return handler

    # Track which node each handler instance lives on via closure.
    node_of = {}

    def rig_node_of(h):
        return node_of[h]

    h1 = forwarder(2)
    h2 = forwarder(3)
    node_of[h1] = 1
    node_of[h2] = 2
    rig.ops[1].register("find", h1)
    rig.ops[2].register("find", h2)

    def executor(origin, payload):
        yield Compute(500)
        return Reply(("found-at", 3), nbytes=64)

    rig.ops[3].register("find", executor)

    def client():
        value = yield from rig.ops[0].request(1, "find", None)
        return value

    task = rig.spawn(client())
    rig.run()
    assert task.result == ("found-at", 3)
    assert hops == [1, 2]
    # 0->1 req, 1->2 fwd, 2->3 fwd, 3->0 reply: exactly four ring messages.
    assert rig.ring.stats.messages == 4


def test_broadcast_all_collects_reply_from_every_station():
    rig = NetRig(nnodes=4)
    for n in (1, 2, 3):
        rig.ops[n].register("poll", lambda origin, payload, n=n: iter_reply(n))

    def iter_reply(n):
        yield Compute(100)
        return n * 10

    def client():
        replies = yield from rig.ops[0].broadcast("poll", scheme="all")
        return replies

    task = rig.spawn(client())
    rig.run()
    assert task.result == {1: 10, 2: 20, 3: 30}


def test_broadcast_any_returns_first_reply():
    rig = NetRig(nnodes=4)

    def slow(origin, payload):
        yield Compute(50_000_000)
        return "slow"

    def fast(origin, payload):
        yield Compute(10)
        return "fast"

    rig.ops[1].register("race", slow)
    rig.ops[2].register("race", fast)
    rig.ops[3].register("race", slow)

    def client():
        value = yield from rig.ops[0].broadcast("race", scheme="any")
        return value

    task = rig.spawn(client())
    rig.run()
    assert task.result == "fast"


def test_broadcast_none_fires_and_forgets():
    rig = NetRig(nnodes=3)
    seen = []

    def sink(origin, payload):
        seen.append((origin, payload))
        return None
        yield  # pragma: no cover

    rig.ops[1].register("notify", sink)
    rig.ops[2].register("notify", sink)

    def client():
        result = yield from rig.ops[0].broadcast("notify", "hint", scheme="none")
        return result

    task = rig.spawn(client())
    rig.run()
    assert task.result is None
    assert sorted(seen) == [(0, "hint"), (0, "hint")]
    # No replies were generated at all.
    assert all(t.stats.replies_sent == 0 for t in rig.transports)


def test_broadcast_all_on_single_node_cluster_returns_empty():
    rig = NetRig(nnodes=1)

    def client():
        replies = yield from rig.ops[0].broadcast("poll", scheme="all")
        return replies

    task = rig.spawn(client())
    rig.run()
    assert task.result == {}


def test_handlers_can_issue_nested_requests():
    rig = NetRig(nnodes=3)

    def leaf(origin, payload):
        yield Compute(10)
        return payload + 1

    def middle(origin, payload):
        value = yield from rig.ops[1].request(2, "leaf", payload * 2)
        return value

    rig.ops[2].register("leaf", leaf)
    rig.ops[1].register("middle", middle)

    def client():
        value = yield from rig.ops[0].request(1, "middle", 5)
        return value

    task = rig.spawn(client())
    rig.run()
    assert task.result == 11


def test_retransmission_recovers_from_frame_loss():
    # 30% loss: requests and replies get dropped; retransmits recover.
    rig = NetRig(nnodes=2, loss_rate=0.30, seed=123)
    calls = []

    def handler(origin, payload):
        calls.append(payload)
        yield Compute(100)
        return payload

    rig.ops[1].register("op", handler)

    def client():
        results = []
        for i in range(20):
            value = yield from rig.ops[0].request(1, "op", i)
            results.append(value)
        return results

    task = rig.spawn(client())
    rig.run()
    assert task.result == list(range(20))
    # At-most-once execution: duplicates answered from the reply cache.
    assert calls == list(range(20))
    total_retransmits = sum(t.stats.retransmits for t in rig.transports)
    assert total_retransmits > 0


def test_unreachable_peer_gives_up_with_transport_error():
    config = ClusterConfig(nodes=2, max_retransmits=3)
    rig = NetRig(nnodes=2, config=config, loss_rate=1.0)
    rig.ops[1].register("op", echo_handler)
    gave_up_at = []

    def client():
        try:
            yield from rig.ops[0].request(1, "op", None)
        finally:
            gave_up_at.append(rig.sim.now)

    rig.spawn(client())
    with pytest.raises(TaskFailure) as exc_info:
        rig.run()
    error = exc_info.value.__cause__
    assert isinstance(error, TransportError)
    assert str(error) == "request op from 0 to 1 gave up after 3 retransmits"
    assert rig.transports[0].stats.retransmits == 3
    # The first send follows the software send cost; the original and
    # each of the 3 retransmissions then wait out one full timeout.
    assert gave_up_at == [config.transport_cpu + 4 * config.retransmit_timeout]
    # Nothing is left behind: no live timer parked in the kernel, no
    # pending record, no frame still in flight.
    assert rig.sim.pending() == 0
    assert not rig.transports[0]._pending


def test_load_hints_piggyback_on_every_message():
    rig = NetRig(nnodes=2)
    rig.transports[0].load_provider = lambda: 7
    rig.ops[1].register("op", echo_handler)

    def client():
        yield from rig.ops[0].request(1, "op", None)

    rig.spawn(client())
    rig.run()
    assert rig.transports[1].load_hints == {0: 7}


def test_duplicate_request_not_reexecuted():
    rig = NetRig(nnodes=2)
    calls = []

    def handler(origin, payload):
        calls.append(payload)
        yield Compute(100)
        return "ok"

    rig.ops[1].register("op", handler)

    def client():
        value = yield from rig.ops[0].request(1, "op", "x")
        return value

    task = rig.spawn(client())
    rig.run()
    # Replay the exact request message (simulating a duplicate in flight).
    sent = task.result
    assert sent == "ok"
    assert calls == ["x"]
