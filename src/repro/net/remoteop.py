"""IVY's remote-operation module (the "simple RPC" of the paper).

Each node registers named operation handlers.  A handler is a generator
``handler(origin, payload)`` that runs as its own interrupt-level task on
the serving node, may itself perform requests, and finishes in one of
three ways:

- return a plain value      → reply to the origin (default size),
- return :class:`Reply`     → reply with an explicit wire size,
- return :class:`Forward`   → pass the request on to another processor
  (no intermediate reply; the final executor answers the origin).

Handlers run concurrently, serialised only by protocol-level locks (page
locks etc.).  This models interrupt-level fault servicing: request
handling delays the *reply*, not whichever application process happens to
be running — see DESIGN.md, "key design decisions".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.config import ClusterConfig
from repro.net.packet import HEADER_BYTES, Message
from repro.net.transport import Transport
from repro.obs import NULL_OBS, Observability, Span
from repro.sim.process import Compute, Effect, SimDriver

__all__ = ["RemoteOp", "Reply", "Forward", "NO_REPLY"]


@dataclass
class Reply:
    """Handler result carrying an explicit reply wire size."""

    value: Any
    nbytes: int = HEADER_BYTES


@dataclass
class Forward:
    """Handler result: forward the request, unchanged, to ``dst``."""

    dst: int


class _NoReply:
    """Handler result: stay silent (legal only for broadcast requests —
    e.g. a non-owner hearing a broadcast page-fault location request)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "NO_REPLY"


NO_REPLY = _NoReply()


class RemoteOp:
    """Named-operation dispatch on top of the reliable transport."""

    def __init__(
        self,
        transport: Transport,
        driver: SimDriver,
        config: ClusterConfig,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.transport = transport
        self.driver = driver
        self.config = config
        self._dispatch_cpu = Compute(config.server_dispatch_cost)
        self.obs = obs
        self.node_id = transport.node_id
        self._handlers: dict[str, Callable[[int, Any], Generator[Effect, Any, Any]]] = {}
        self._local_probes: dict[str, Callable[[Any], bool]] = {}
        transport.request_handler = self._dispatch
        transport.duplicate_probe = self._probe

    # ------------------------------------------------------------------

    def register(
        self, op: str, handler: Callable[[int, Any], Generator[Effect, Any, Any]]
    ) -> None:
        """Register the generator handler for operation ``op``."""
        if op in self._handlers:
            raise ValueError(f"operation {op!r} already registered on node {self.node_id}")
        self._handlers[op] = handler

    def register_local_probe(self, op: str, probe: Callable[[Any], bool]) -> None:
        """Register a lock-free predicate ``probe(payload)`` answering
        "would this node execute ``op`` locally right now (rather than
        forward it)?" — consulted by the transport on duplicates of
        forwarded requests (see `Transport.duplicate_probe`)."""
        self._local_probes[op] = probe

    def close(self) -> None:
        """Unregister every handler and probe (they refer back to this node)."""
        self._handlers.clear()
        self._local_probes.clear()

    def _probe(self, msg: Message) -> bool:
        probe = self._local_probes.get(msg.op)
        return bool(probe(msg.payload)) if probe is not None else False

    def request(
        self,
        dst: int,
        op: str,
        payload: Any = None,
        nbytes: int = HEADER_BYTES,
        span: Span | int | None = None,
    ) -> Generator[Effect, Any, Any]:
        """Perform a remote operation and return its reply value."""
        if not self.obs.enabled:
            return self.transport.request(dst, op, payload, nbytes)
        return self._rpc(op, span, "dst", dst, self.transport.request, (dst, op, payload, nbytes))

    def broadcast(
        self,
        op: str,
        payload: Any = None,
        nbytes: int = HEADER_BYTES,
        scheme: str = "all",
        span: Span | int | None = None,
    ) -> Generator[Effect, Any, Any]:
        """Broadcast ``op``; reply handling per the paper's three schemes."""
        if not self.obs.enabled:
            return self.transport.broadcast(op, payload, nbytes, scheme)
        return self._rpc(
            op, span, "scheme", scheme, self.transport.broadcast, (op, payload, nbytes, scheme)
        )

    def multicast(
        self,
        targets: tuple[int, ...],
        op: str,
        payload: Any = None,
        nbytes: int = HEADER_BYTES,
        span: Span | int | None = None,
    ) -> Generator[Effect, Any, dict[int, Any]]:
        """Multicast ``op`` to ``targets``; one reply per target."""
        if not self.obs.enabled:
            return self.transport.multicast(targets, op, payload, nbytes)
        return self._rpc(
            op, span, "fanout", len(targets), self.transport.multicast,
            (targets, op, payload, nbytes),
        )

    def _rpc(
        self,
        op: str,
        parent: Span | int | None,
        attr: str,
        value: Any,
        call: Callable[..., Generator[Effect, Any, Any]],
        args: tuple[Any, ...],
    ) -> Generator[Effect, Any, Any]:
        """The one ``rpc:<op>`` span (its one call-specific attribute is
        ``attr=value``) around a transport call, whose messages carry the
        span's id on the wire.  Observed runs only: unobserved, the
        callers return the transport's generator itself, so a remote
        operation adds no generator frame of its own."""
        obs = self.obs
        hop = obs.span_begin(f"rpc:{op}", parent=parent, node=self.node_id, **{attr: value})
        try:
            return (yield from call(*args, span_id=hop.sid))
        finally:
            obs.span_end(hop)

    # ------------------------------------------------------------------

    def _dispatch(self, msg: Message) -> None:
        self.driver.spawn(
            self._serve(msg), f"serve-{self.node_id}-{msg.op}-{msg.origin}.{msg.msg_id}"
        )

    def _serve(self, msg: Message) -> Generator[Effect, Any, None]:
        handler = self._handlers.get(msg.op)
        if handler is None:
            raise RuntimeError(f"node {self.node_id}: no handler for {msg.op!r}")
        span = self.obs.span_begin(
            f"serve:{msg.op}", parent=msg.span, node=self.node_id, origin=msg.origin
        ) if self.obs.enabled else None
        try:
            yield self._dispatch_cpu
            result = yield from handler(msg.origin, msg.payload)
            if isinstance(result, Forward):
                yield from self.transport.forward(
                    result.dst, msg, span_id=span.sid if span is not None else 0
                )
            elif result is NO_REPLY:
                if msg.kind != "bcast":
                    raise RuntimeError(
                        f"handler for {msg.op!r} returned NO_REPLY to a unicast request"
                    )
                # Silence has no side effects: let duplicates re-execute, so a
                # retransmitted location broadcast can find an owner that was
                # mid-handoff the first time.
                self.transport.clear_request(msg)
            elif msg.kind == "bcast" and msg.reply_scheme == "none":
                self.transport.mark_no_reply(msg)
            elif isinstance(result, Reply):
                yield from self.transport.send_reply(msg, result.value, result.nbytes)
            else:
                yield from self.transport.send_reply(msg, result)
        finally:
            # Under head-based sampling this span may be dropped
            # (negative id), but span_end still feeds its service time
            # to the profiler's network attribution and the timeline's
            # per-window series.
            if span is not None:
                self.obs.span_end(span)
