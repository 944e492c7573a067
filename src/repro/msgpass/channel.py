"""Ports and mailboxes: explicit send/receive over the ring.

A port is ``(node, port_id)``.  ``send`` marshals the payload, ships it
(one-way, no reply — delivery is reliable in the simulator when frame
loss is off; with loss the transport's request machinery is used so the
comparison against the SVM stays apples-to-apples), and the receiver
pays the unmarshal cost when it dequeues.

Processes receive with ``receive(port)``, blocking until a message is
queued — multiple threads of control and explicit data movement, the
programming model the paper contrasts with shared virtual memory.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.api.ivy import Ivy, IvyProcessContext
from repro.msgpass.marshal import marshal_cost, unmarshal_cost, wire_size
from repro.net.packet import request_size
from repro.sim.process import Compute, Effect, Suspend, Task

__all__ = ["MessagePassing"]

OP_DELIVER = "mp.deliver"


class _Mailbox:
    __slots__ = ("queue", "waiters")

    def __init__(self) -> None:
        self.queue: deque[tuple[Any, int, int]] = deque()
        self.waiters: deque[Task] = deque()


class MessagePassing:
    """A port/mailbox service over every node of a booted Ivy system."""

    def __init__(self, ivy: Ivy) -> None:
        # Not the Ivy: every node's delivery handler holds this service.
        self.cpu = ivy.config.cpu
        self._boxes: list[dict[int, _Mailbox]] = [
            {} for _ in range(ivy.config.nodes)
        ]
        for node in ivy.cluster.nodes:
            node.remote.register(OP_DELIVER, self._make_deliver_handler(node.node_id))

    def _make_deliver_handler(self, node_id: int):
        def handler(origin: int, payload: tuple) -> Generator:
            return self._serve_deliver(node_id, payload)
            yield  # pragma: no cover - makes this a generator

        return handler

    def _box(self, node: int, port: int) -> _Mailbox:
        boxes = self._boxes[node]
        box = boxes.get(port)
        if box is None:
            box = boxes[port] = _Mailbox()
        return box

    # ------------------------------------------------------------------
    # client API (run inside a process)

    def send(
        self,
        ctx: IvyProcessContext,
        dst_node: int,
        port: int,
        payload: Any,
        nbytes: int,
        elements: int = 0,
    ) -> Generator[Effect, Any, None]:
        """Marshal and ship ``payload`` to ``(dst_node, port)``.

        ``nbytes`` is the flat payload size; ``elements`` counts
        pointer-linked nodes that must be chased and relocated.
        """
        yield Compute(marshal_cost(self.cpu, nbytes, elements))
        ctx.node.counters.inc("mp_sends")
        ctx.node.counters.inc("mp_bytes_sent", nbytes)
        if dst_node == ctx.node_id:
            self._serve_deliver(dst_node, (port, payload, nbytes, elements))
            return
        yield from ctx.node.remote.request(
            dst_node,
            OP_DELIVER,
            (port, payload, nbytes, elements),
            nbytes=request_size(wire_size(nbytes, elements)),
        )

    def receive(
        self, ctx: IvyProcessContext, port: int
    ) -> Generator[Effect, Any, Any]:
        """Dequeue the next message on the caller's node at ``port``,
        blocking if the mailbox is empty.  Charges unmarshal cost."""
        box = self._box(ctx.node_id, port)
        if not box.queue:
            value = yield Suspend(box.waiters.append)
            # The deliverer handed the message straight to us.
            payload, nbytes, elements = value
        else:
            payload, nbytes, elements = box.queue.popleft()
        yield Compute(unmarshal_cost(self.cpu, nbytes, elements))
        ctx.node.counters.inc("mp_receives")
        return payload

    # ------------------------------------------------------------------

    def _serve_deliver(self, node_id: int, msg: tuple) -> Any:
        port, payload, nbytes, elements = msg
        box = self._box(node_id, port)
        if box.waiters:
            box.waiters.popleft().wake((payload, nbytes, elements))
        else:
            box.queue.append((payload, nbytes, elements))
        return True
