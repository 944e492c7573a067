"""Free-list pools for the message hot path.

The transport builds one :class:`~repro.net.packet.Message` per request,
reply, forward and retransmission, and the coherence servers build one
page-sized numpy snapshot per page transfer.  Both are textbook
free-list candidates: the objects are homogeneous, short-lived, and
their lifetimes are fully visible to the net layer.  Pooling them turns
the per-event allocator traffic of a run into a handful of allocations
at warm-up.

**Message lifetime is reference-counted**, because a request envelope
has three concurrent holders with independent lifetimes:

- the *creator* (the ``_Pending`` record, or the reply cache for a
  forwarded request) holds one reference until the request completes or
  the cache entry dies;
- every *scheduled delivery* holds one from ``send`` until the receiver
  callback returns — one per station the frame names, none for a
  station a targeted frame merely passes; a retransmission can put
  several copies of the same envelope in flight at once;
- a *server* holds one while its handler task runs (handling spans
  simulated time, long after the delivery event returned).

A release that merely drops ``refs`` is free; the last release clears
the payload references and returns the object to the free list.  The
discipline is deliberately asymmetric in its failure modes: a missing
*release* is a benign leak (the object falls back to the garbage
collector), while a missing *retain* would recycle a live envelope —
which the 42 golden schedule fixtures and every application result
check would catch loudly.

**Page buffers are not reference-counted**: a pooled page snapshot is
given back exactly once, by the unicast requester that installed it
(``memory.install`` copies the bytes into the frame, so the buffer is
dead the moment install returns).  Reply-cache resends may still ship a
recycled buffer, but only to an origin whose request already completed
— the transport drops the duplicate before anything reads the payload.
Multicast payloads (the update policy's page pushes) are shared by
every receiver of one frame and are therefore *never* pooled — there is
no single point that could return them.

Pools are deterministic by construction: they hold no clock and no
randomness, and reuse order is a pure function of the (deterministic)
schedule.  ``repro.sim``/``repro.net`` determinism lint covers this
module; nothing here may key anything on ``id()``.
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import HEADER_BYTES, Message, next_serial

__all__ = ["MessagePool", "PagePool"]


class MessagePool:
    """Free-list of :class:`Message` envelopes, one per fabric."""

    __slots__ = ("_free", "allocated", "reused")

    def __init__(self) -> None:
        self._free: list[Message] = []
        #: Envelopes constructed because the free list was empty.
        self.allocated = 0
        #: Envelopes served from the free list (the pool's hit count).
        self.reused = 0

    def acquire(
        self,
        src: int,
        dst: int,
        kind: str,
        op: str,
        origin: int,
        msg_id: int,
        payload: object,
        nbytes: int,
        reply_scheme: str = "all",
        targets: tuple[int, ...] | None = None,
        span: int = 0,
    ) -> Message:
        """A fresh envelope (``refs == 1``), recycled when possible.

        Field-for-field equivalent to constructing a :class:`Message`,
        including a *fresh* ``serial`` — pooling must be invisible to
        anything keying on message identity.
        """
        free = self._free
        if not free:
            self.allocated += 1
            return Message(
                src, dst, kind, op, origin, msg_id, payload, nbytes,
                reply_scheme=reply_scheme, targets=targets, span=span,
            )
        msg = free.pop()
        msg.src = src
        msg.dst = dst
        msg.kind = kind
        msg.op = op
        msg.origin = origin
        msg.msg_id = msg_id
        msg.payload = payload
        msg.nbytes = nbytes if nbytes >= HEADER_BYTES else HEADER_BYTES
        msg.load_hint = 0
        msg.reply_scheme = reply_scheme
        msg.targets = targets
        msg.span = span
        msg.serial = next_serial()
        msg.refs = 1
        self.reused += 1
        return msg

    def retain(self, msg: Message) -> None:
        """Add a reference (delivery in flight, server handling, ...)."""
        msg.refs += 1

    def release(self, msg: Message) -> None:
        """Drop a reference; the last one recycles the envelope."""
        refs = msg.refs - 1
        msg.refs = refs
        if refs == 0:
            # Drop payload references so recycled envelopes do not pin
            # page snapshots (or anything else) past their lifetime.
            msg.payload = None
            msg.targets = None
            self._free.append(msg)
        elif refs < 0:
            raise RuntimeError(
                f"message over-released (refs={refs}): {msg.describe()}"
            )


class PagePool:
    """Free-list of page-sized ``uint8`` snapshot buffers, one per fabric.

    Buffers are keyed by length — one cluster has one page size, but the
    pool does not need to assume it.
    """

    __slots__ = ("_free", "allocated", "reused")

    def __init__(self) -> None:
        self._free: dict[int, list[np.ndarray]] = {}
        self.allocated = 0
        self.reused = 0

    def copy_of(self, frame: np.ndarray) -> np.ndarray:
        """A snapshot of ``frame`` in a pooled buffer (contents copied)."""
        stack = self._free.get(frame.nbytes)
        if stack:
            buf = stack.pop()
            buf[:] = frame
            self.reused += 1
            return buf
        self.allocated += 1
        return frame.copy()

    def give(self, buf: np.ndarray) -> None:
        """Return a buffer whose contents are dead (installed or stale).

        Callers must give each buffer back at most once, from exactly
        one place — the unicast requester that consumed it.
        """
        self._free.setdefault(buf.nbytes, []).append(buf)
