"""The transport's send-and-wait edges: what each of ``request``,
``broadcast`` and ``multicast`` does before, or instead of, waiting.

Each call allocates a message id, counts the send, charges the software
send cost as a ``Compute``, transmits, arms the retransmit timer and
waits.  These tests pin the cases that leave a step out.
"""

import pytest

from repro.net.transport import TransportError

from tests.net.conftest import NetRig


def _sink(origin, payload):
    return None
    yield  # pragma: no cover


def test_single_node_broadcast_any_raises_after_the_send_cost():
    rig = NetRig(nnodes=1)
    transport = rig.transports[0]

    def client():
        yield from transport.broadcast("poll", None, scheme="any")

    task = rig.spawn(client())
    with pytest.raises(Exception) as excinfo:
        rig.run()
    error = excinfo.value.__cause__ or excinfo.value
    assert isinstance(error, TransportError)
    assert task.error is error
    # Nobody can hear it, so nothing went on the medium and no timer was
    # armed; the send cost was still charged.
    assert rig.sim.now == rig.config.transport_cpu
    assert transport.stats.broadcasts_sent == 1
    assert rig.ring.stats.messages == 0
    assert rig.sim.pending() == 0


def test_unknown_scheme_fails_before_any_id_stat_or_compute():
    rig = NetRig(nnodes=3)
    transport = rig.transports[0]
    with pytest.raises(ValueError, match="unknown reply scheme 'some'"):
        next(transport.broadcast("poll", None, scheme="some"))  # no Compute yielded
    assert transport._next_id == 0
    assert transport.stats.snapshot() == dict.fromkeys(transport.stats.snapshot(), 0)
    assert rig.sim.now == 0 and rig.sim.pending() == 0


def test_broadcast_none_arms_no_timer():
    rig = NetRig(nnodes=3)
    for op in rig.ops[1:]:
        op.register("notify", _sink)
    transport = rig.transports[0]
    pending_on_return = []

    def client():
        result = yield from transport.broadcast("notify", "hint", scheme="none")
        pending_on_return.append(rig.sim.pending())
        return result

    task = rig.spawn(client())
    rig.run()
    assert task.result is None
    # Only the two delivery events were queued: no retransmit timer.
    assert pending_on_return == [2]
    assert transport._pending == {}
    assert transport.stats.retransmits == 0


def test_empty_multicast_sends_nothing():
    rig = NetRig(nnodes=3)
    transport = rig.transports[0]

    def client():
        replies = yield from transport.multicast((), "inv", None)
        return replies

    task = rig.spawn(client())
    rig.run()
    assert task.result == {}
    assert transport._next_id == 0
    assert transport.stats.broadcasts_sent == 0
    assert rig.sim.now == 0
    assert rig.ring.stats.messages == 0
