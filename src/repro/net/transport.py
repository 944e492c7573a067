"""Reliable request/reply transport over the network fabric.

The transport is backend-agnostic: it speaks to the medium only through
the :class:`repro.net.fabric.Fabric` interface, so retransmission, the
reply cache, forwarding and the delivery-label grammar behave
identically on the token ring and the switched fabric.

Implements the paper's retransmission philosophy: *resend replies only
when necessary*.  A server caches the reply of every executed request;
when a duplicate request arrives (because the original reply was lost)
the cached reply is resent without re-executing the operation.  Execution
is therefore at-most-once, under the paper's two assumptions — local
computation is always correct, and a received packet's content is
correct.

The transport also implements the pieces IVY's remote-operation layer
needs that ordinary RPC lacks:

- **Forwarding**: a request can hop through intermediate processors; only
  the final executor replies, directly to the origin.  A node that
  forwarded a request re-forwards duplicates (it may not re-execute,
  because it never executed), so a loss on any hop is recovered by the
  origin's retransmission timer.
- **Broadcast** with three reply schemes: ``"any"`` (first reply wins),
  ``"all"`` (collect one reply per other station), ``"none"`` (fire and
  forget).
- **Load hints**: every outgoing message carries the sender's current
  process count; receivers store it in ``load_hints``, the table the
  node's scheduler reads.

Requests made to the local node bypass the fabric with a small local
delivery delay, so protocol code treats all destinations uniformly
(e.g. when the fixed distributed manager maps a page to the faulting
processor itself).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.config import MICROSECOND, ClusterConfig
from repro.net.fabric import Fabric
from repro.net.packet import BROADCAST, HEADER_BYTES, Message, delivery_label, op_page
from repro.sim.kernel import CancelHandle, Simulator
from repro.sim.process import Compute, Effect, SimDriver, Suspend, Task

__all__ = ["Transport", "TransportError", "TransportStats"]

#: Delivery delay for messages a node sends to itself (no fabric involved).
LOCAL_DELIVERY_NS = 20 * MICROSECOND


class TransportError(RuntimeError):
    """A request exhausted its retransmission budget."""


class TransportStats:
    """Per-node transport counters."""

    __slots__ = (
        "requests_sent",
        "replies_sent",
        "forwards_sent",
        "broadcasts_sent",
        "retransmits",
        "duplicates_dropped",
        "replies_resent",
    )

    requests_sent: int
    replies_sent: int
    forwards_sent: int
    broadcasts_sent: int
    retransmits: int
    duplicates_dropped: int
    replies_resent: int

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


class _Pending:
    """Book-keeping for one outstanding request or broadcast, and its
    one-shot reply slot: the requester parks on it with
    ``yield Suspend(pending.park)``; the delivery event (or the give-up
    timer) posts the value, which wakes it."""

    __slots__ = ("msg", "timer", "retries", "want", "replies", "posted", "value", "waiter")

    def __init__(self, msg: Message, want: int) -> None:
        self.msg = msg
        self.timer: CancelHandle | None = None
        self.retries = 0
        #: Number of replies still needed (1 for unicast/any, N-1 for all).
        self.want = want
        #: src -> value, for broadcast-all.
        self.replies: dict[int, Any] = {}
        self.posted = False
        self.value: Any = None
        self.waiter: Task | None = None

    def park(self, task: Task) -> None:
        """The ``Suspend`` registration: remember the parked requester,
        or wake it at once if the value is already posted."""
        if self.posted:
            task.wake(self.value)
        else:
            self.waiter = task

    def post(self, value: Any) -> None:
        """Post the reply value, waking the parked requester.  A second
        post is a protocol bug."""
        if self.posted:
            raise RuntimeError(f"reply to {self.msg.describe()} posted twice")
        self.posted = True
        self.value = value
        if self.waiter is not None:
            waiter, self.waiter = self.waiter, None
            waiter.wake(value)


# Reply-cache states (dedup table).
_IN_PROGRESS = ("inprogress",)


def _retransmit_label(node_id: int, msg: Message) -> str:
    """Scheduling label of ``node_id``'s retransmit timer for ``msg``."""
    page = op_page(msg.op, msg.payload)
    ptag = "p?" if page is None else f"p{page}"
    return f"retransmit:n{node_id}:{ptag}:{msg.op}:o{msg.origin}.{msg.msg_id}"


class Transport:
    """One reliable transport endpoint per simulated processor."""

    def __init__(
        self,
        sim: Simulator,
        driver: SimDriver,
        fabric: Fabric,
        node_id: int,
        config: ClusterConfig,
    ) -> None:
        self.sim = sim
        self.driver = driver
        #: The transmission medium, typed against the backend-agnostic
        #: Fabric interface — retransmission and labelling below never
        #: assume a shared medium.
        self.fabric = fabric
        self.node_id = node_id
        self.config = config
        #: The software send cost, one effect for every send.
        self._send_cpu = Compute(config.transport_cpu)
        self.stats = TransportStats()
        self._next_id = 0
        self._pending: dict[int, _Pending] = {}
        self._reply_cache: dict[tuple[int, int], tuple[Any, ...]] = {}
        #: Upcall into the remote-operation layer for incoming requests.
        self.request_handler: Callable[[Message], None] | None = None
        #: Asked on duplicates of *forwarded* requests: "would this node
        #: execute the operation locally now?"  If yes the stale sticky
        #: route is discarded and the handler re-runs — breaking the
        #: routing loop that forms when ownership moves TO a node that
        #: earlier forwarded the same request elsewhere (its sticky entry
        #: would otherwise bounce every retransmission away forever).
        self.duplicate_probe: Callable[[Message], bool] = lambda msg: False
        #: Provides this node's load byte, piggybacked on every message.
        self.load_provider: Callable[[], int] = lambda: 0
        #: Load hints observed on incoming messages: station -> the load
        #: byte it last piggybacked.  The node's scheduler shares this
        #: dict (``Ivy`` wires it).
        self.load_hints: dict[int, int] = {}
        fabric.attach(node_id, self._on_message)

    def close(self) -> None:
        """Forget the remote-operation layer's upcalls (it refers back here)."""
        self.request_handler = None
        self.duplicate_probe = lambda msg: False

    # ------------------------------------------------------------------
    # client side

    def request(
        self,
        dst: int,
        op: str,
        payload: Any,
        nbytes: int = HEADER_BYTES,
        span_id: int = 0,
    ) -> Generator[Effect, Any, Any]:
        """Send a request and wait for the (possibly forwarded) reply."""
        return self._send_and_wait(dst, op, payload, nbytes, span_id)

    def broadcast(
        self,
        op: str,
        payload: Any,
        nbytes: int = HEADER_BYTES,
        scheme: str = "all",
        span_id: int = 0,
    ) -> Generator[Effect, Any, Any]:
        """Broadcast a request to every other station.

        Returns the single winning reply for ``scheme="any"``, a dict
        ``{station: value}`` for ``"all"``, and ``None`` once sent for
        ``"none"``.  On a single-node cluster there is nobody to hear the
        broadcast: "any" would wait forever, so it is rejected.
        """
        if scheme not in ("any", "all", "none"):
            raise ValueError(f"unknown reply scheme {scheme!r}")
        return self._send_and_wait(BROADCAST, op, payload, nbytes, span_id, scheme)

    def multicast(
        self,
        targets: tuple[int, ...],
        op: str,
        payload: Any,
        nbytes: int = HEADER_BYTES,
        span_id: int = 0,
    ) -> Generator[Effect, Any, dict[int, Any]]:
        """One transmission that wakes only ``targets``; collect a reply
        from each (the paper's invalidation pattern).

        The frame is a broadcast on the medium — it costs what a
        broadcast costs — but the fabric delivers it to the named
        stations alone, so no other transport ever sees it.  Returns
        ``{station: value}``.  An empty target set is a no-op; a set
        naming this node or a station off the fabric is a protocol bug
        and fails in ``Fabric.send`` with a ``ValueError``.
        """
        targets = tuple(sorted(set(targets)))
        return self._send_and_wait(BROADCAST, op, payload, nbytes, span_id, "all", targets)

    def _send_and_wait(
        self,
        dst: int,
        op: str,
        payload: Any,
        nbytes: int,
        span_id: int,
        scheme: str | None = None,
        targets: tuple[int, ...] | None = None,
    ) -> Generator[Effect, Any, Any]:
        """The one body behind request (``scheme`` None), broadcast and
        multicast, run in the caller's task.

        Allocate the id, count the send, keep the caller's CPU busy for
        the software send cost, transmit, arm the retransmit timer and
        release the CPU until the replies arrive.  An empty multicast
        does nothing; a broadcast nobody can hear is not transmitted; a
        ``"none"`` broadcast neither waits nor arms a timer.
        """
        if targets == ():
            return {}
        self._next_id += 1
        msg = Message(
            self.node_id, dst, "req" if scheme is None else "bcast", op, self.node_id,
            self._next_id, payload, nbytes, reply_scheme=scheme or "all", targets=targets,
            span=span_id,
        )
        if scheme is None:
            want = 1
            self.stats.requests_sent += 1
        else:
            want = len(targets) if targets else self.fabric.nnodes - 1
            self.stats.broadcasts_sent += 1
        yield self._send_cpu
        if want == 0:
            if scheme == "any":
                raise TransportError("broadcast 'any' with no other stations")
            return {} if scheme == "all" else None
        self._transmit(msg)
        if scheme == "none":
            return None
        pending = _Pending(msg, want=1 if scheme == "any" else want)
        self._pending[msg.msg_id] = pending
        self._arm_timer(pending)
        value = yield Suspend(pending.park)
        if isinstance(value, TransportError):
            raise value
        return value

    # ------------------------------------------------------------------
    # server side (called from the remote-operation layer)

    def send_reply(
        self, msg: Message, value: Any, nbytes: int = HEADER_BYTES
    ) -> Generator[Effect, Any, None]:
        """Reply to ``msg``'s origin and cache the reply for duplicates."""
        self._reply_cache[(msg.origin, msg.msg_id)] = ("done", value, nbytes)
        self.stats.replies_sent += 1
        yield self._send_cpu
        self._transmit(Message(
            self.node_id, msg.origin, "rep", msg.op, msg.origin,
            msg.msg_id, value, nbytes, span=msg.span,
        ))

    def forward(
        self, dst: int, msg: Message, span_id: int = 0
    ) -> Generator[Effect, Any, None]:
        """Forward ``msg``, unchanged, to ``dst`` (same origin/msg_id); no local reply.

        The eventual executor replies straight to the origin.  Forwarding
        is *sticky*: a duplicate of this request (origin retransmission)
        is re-sent along the same recorded hop rather than re-routed
        through the handler.  Re-routing would chase ownership hints that
        were updated by the first pass — including hints that now point
        back at the (still blocked) origin itself — while the recorded
        hop provably leads to the executor whose reply cache can answer.
        """
        self.stats.forwards_sent += 1
        forwarded = Message(
            self.node_id, dst, "req", msg.op, msg.origin, msg.msg_id,
            msg.payload, msg.nbytes, span=span_id,
        )
        self._reply_cache[(msg.origin, msg.msg_id)] = ("forwarded", forwarded)
        yield self._send_cpu
        self._transmit(forwarded)

    def mark_no_reply(self, msg: Message) -> None:
        """Record completion of an operation that sends no reply (the
        ``"none"`` broadcast scheme); duplicates are dropped."""
        self._reply_cache[(msg.origin, msg.msg_id)] = ("noreply",)

    def clear_request(self, msg: Message) -> None:
        """Forget a request entirely so a duplicate re-executes.

        Used when a handler answered NO_REPLY to a broadcast location
        request: staying silent has no side effects, and the state that
        made it silent (not being the owner) may have changed by the time
        the origin retransmits — e.g. a broadcast that lands in the
        window between an old owner relinquishing a page and the new
        owner installing it gets no reply from *anyone*, and only the
        retransmission finding the settled owner recovers."""
        self._reply_cache.pop((msg.origin, msg.msg_id), None)

    # ------------------------------------------------------------------
    # internals

    def _transmit(self, msg: Message) -> None:
        msg.load_hint = self.load_provider()
        if msg.dst == self.node_id:
            self.sim.schedule_nocancel(
                LOCAL_DELIVERY_NS, self._on_message, msg,
                label=(delivery_label, self.node_id, msg),
            )
        else:
            self.fabric.send(msg)

    def _arm_timer(self, pending: _Pending) -> None:
        # The timer event is labelled so the schedule explorer can order a
        # retransmission against same-tick deliveries: a retransmitted
        # request racing its own original (or a stale reply) is exactly
        # the reordering the delay-injection strategy exists to exercise.
        pending.timer = self.sim.schedule(
            self.config.retransmit_timeout, self._retransmit, pending,
            label=(_retransmit_label, self.node_id, pending.msg),
        )

    def _retransmit(self, pending: _Pending) -> None:
        if pending.posted or pending.msg.msg_id not in self._pending:
            return
        pending.retries += 1
        if pending.retries > self.config.max_retransmits:
            del self._pending[pending.msg.msg_id]
            error = TransportError(
                f"request {pending.msg.op} from {self.node_id} to "
                f"{pending.msg.dst} gave up after {pending.retries - 1} retransmits"
            )
            pending.post(error)
            return
        self.stats.retransmits += 1
        self._transmit(pending.msg)
        self._arm_timer(pending)

    def _on_message(self, msg: Message) -> None:
        # The fabric hands a station only frames addressed to it (a
        # multicast naming other stations never gets here), so every
        # message is processed — and its load byte recorded.
        self.load_hints[msg.src] = msg.load_hint
        if msg.kind == "rep":
            self._on_reply(msg)
        else:
            self._on_request(msg)

    def _on_reply(self, msg: Message) -> None:
        pending = self._pending.get(msg.msg_id)
        if pending is None or pending.posted:
            return  # stale or duplicate reply — ignore
        if pending.msg.kind == "bcast" and pending.msg.reply_scheme == "all":
            if msg.src in pending.replies:
                return
            pending.replies[msg.src] = msg.payload
            if len(pending.replies) < pending.want:
                return
            result: Any = dict(pending.replies)
        else:
            result = msg.payload
        del self._pending[msg.msg_id]
        if pending.timer is not None:
            pending.timer.cancel()
        pending.post(result)

    def _on_request(self, msg: Message) -> None:
        key = (msg.origin, msg.msg_id)
        cached = self._reply_cache.get(key)
        if cached is None:
            self._reply_cache[key] = _IN_PROGRESS
            if self.request_handler is None:
                raise RuntimeError(f"node {self.node_id}: no request handler")
            self.request_handler(msg)
            return
        if cached is _IN_PROGRESS:
            self.stats.duplicates_dropped += 1
            return
        if cached[0] == "forwarded":
            if cached[1].dst == msg.src or self.duplicate_probe(msg):
                # Drop the stale route and re-run the handler, in two cases.
                # Cycle: the very node we recorded as the next hop has sent
                # the request back at us — both ends hold stale routes (the
                # owner moved away from the pair entirely), and bouncing the
                # cached forwards would ping-pong forever while the origin's
                # retransmissions burn out.  Re-routing with *current* state
                # converges because ownership updates (chown, manager table
                # writes) progress independently of this request.
                # Probe: this node can serve the request itself now (e.g. it
                # has become the page's owner since it forwarded).
                del self._reply_cache[key]
                self._on_request(msg)
                return
            # Sticky re-forward along the recorded hop (see `forward`):
            # the recorded path provably leads to wherever the request
            # first executed, whose reply cache can answer — fresh routing
            # hints may by now point back at the still-blocked origin.
            self.stats.duplicates_dropped += 1
            self._transmit(cached[1])
            return
        if cached[0] == "noreply":
            self.stats.duplicates_dropped += 1
            return
        _tag, value, nbytes = cached
        self.stats.replies_resent += 1
        self.driver.spawn(
            self.send_reply(msg, value, nbytes),
            f"resend-reply-{self.node_id}-{msg.msg_id}",
        )
