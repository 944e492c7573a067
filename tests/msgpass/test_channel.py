"""Tests for the message-passing baseline (ports, mailboxes, marshaling)."""

import numpy as np
import pytest

from repro import ClusterConfig, Ivy
from repro.msgpass import MessagePassing
from repro.msgpass.marshal import marshal_cost, unmarshal_cost, wire_size
from repro.config import CpuConfig


def make():
    ivy = Ivy(ClusterConfig(nodes=3))
    return ivy, MessagePassing(ivy)


def test_send_receive_roundtrip():
    ivy, mp = make()

    def consumer(ctx, out_addr):
        msg = yield from mp.receive(ctx, port=7)
        yield from ctx.write_i64(out_addr, msg["value"])

    def main(ctx):
        out = yield from ctx.malloc(8)
        yield from ctx.spawn(consumer, out, on=1)
        yield from mp.send(ctx, 1, 7, {"value": 99}, nbytes=8)
        yield ctx.compute(50_000_000)
        value = yield from ctx.read_i64(out)
        return value

    assert ivy.run(main) == 99


def test_receive_blocks_until_message_arrives():
    ivy, mp = make()
    order = []

    def consumer(ctx):
        order.append(("recv-start", ivy.time_ns))
        msg = yield from mp.receive(ctx, port=1)
        order.append(("recv-done", ivy.time_ns))
        return msg

    def main(ctx):
        yield from ctx.spawn(consumer, on=2)
        yield ctx.compute(10_000_000)
        order.append(("send", ivy.time_ns))
        yield from mp.send(ctx, 2, 1, "payload", nbytes=64)
        return True

    ivy.run(main)
    kinds = [k for k, _ in order]
    assert kinds == ["recv-start", "send", "recv-done"]


def test_messages_queue_in_fifo_order():
    ivy, mp = make()

    def consumer(ctx, out_addr):
        values = []
        for _ in range(3):
            msg = yield from mp.receive(ctx, port=2)
            values.append(msg)
        yield from ctx.write_array(out_addr, np.array(values, dtype=np.int64))

    def main(ctx):
        out = yield from ctx.malloc(24)
        for i in range(3):
            yield from mp.send(ctx, 1, 2, 100 + i, nbytes=8)
        yield from ctx.spawn(consumer, out, on=1)
        yield ctx.compute(100_000_000)
        values = yield from ctx.read_array(out, np.int64, 3)
        return values

    assert ivy.run(main).tolist() == [100, 101, 102]


def test_local_send_skips_the_ring():
    ivy, mp = make()

    def main(ctx):
        before = ivy.cluster.fabric.stats.messages
        yield from mp.send(ctx, ctx.node_id, 3, "x", nbytes=8)
        got = yield from mp.receive(ctx, port=3)
        return got, ivy.cluster.fabric.stats.messages - before

    got, ring_msgs = ivy.run(main)
    assert got == "x"
    assert ring_msgs == 0


def test_marshaling_costs_scale_with_elements():
    cpu = CpuConfig()
    flat = marshal_cost(cpu, 1000, elements=0)
    listy = marshal_cost(cpu, 1000, elements=100)
    assert listy > flat
    # Unmarshalling pointer structures is costlier than marshalling them.
    assert unmarshal_cost(cpu, 1000, 100) > marshal_cost(cpu, 1000, 100)
    assert wire_size(1000, 100) == 1000 + 800


def test_linked_structure_send_charges_more_time_than_flat():
    results = {}
    for elements, tag in ((0, "flat"), (500, "linked")):
        ivy, mp = make()

        def main(ctx, elements=elements):
            yield from ctx.spawn(_sink(mp), on=1)
            yield from mp.send(ctx, 1, 9, "data", nbytes=4000, elements=elements)
            yield ctx.compute(1000)
            return True

        ivy.run(main)
        results[tag] = ivy.time_ns
    assert results["linked"] > results["flat"]


def _sink(mp):
    def sink(ctx):
        yield from mp.receive(ctx, port=9)

    return sink
