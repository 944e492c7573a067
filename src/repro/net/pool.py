"""Page buffers: the free list and reference counts behind every frame.

Every node's page frames and the page images the coherence servers ship
are page-sized numpy buffers from one :class:`PagePool` per fabric.  The
objects are homogeneous and their lifetimes are fully visible to the
memory and svm layers, so a run allocates a handful of buffers at
warm-up and recycles them after that.

**Page images are reference-counted**, because a page's read copies
hold exactly its owner's bytes until a write invalidates them: the
owner's frame, every reader's frame and every read reply in flight
share one buffer.  A private buffer is writable and has exactly one
holder; :meth:`PagePool.share` turns it into a read-only *image* and
counts its holders, :meth:`PagePool.release` drops one, and the last
release returns the buffer to the free list.  Serving a read shares the
owner's frame (one reference for the owner, one for the requester); the
requester's reference passes to its frame when it installs the image,
or is released when it abandons a stale copy; ``memory.drop`` releases
a frame's reference.  An update-policy push is one pooled snapshot:
every receiver that applies it shares it as its frame, and the pusher
releases its own reference once all have acknowledged.  Nothing writes
into an image:
:meth:`PagePool.private` is the one way back to a writable buffer, and
copies only while another holder exists (copy-on-write).  Every buffer
a frame or a reply holds comes from the pool, so releasing anything else
— or releasing once too often — raises.

**A reply-cache "done" entry is a non-owning alias.**  It takes no
reference, so a resend after the request completed may carry a buffer
that has since been recycled; only an origin whose request already
completed receives one, and its transport drops the duplicate before
anything reads the payload.  Pinning an image per cached reply would
hold one page version per served read for the rest of the run.  A
missing release is a benign leak: a read served twice (a duplicate that
reaches a node which has since become the owner) leaves one reference
that nobody returns, and the owner merely copies on its next write.

:class:`MessagePool` is bench-only.  The simulator builds a plain
:class:`~repro.net.packet.Message` per request, reply, forward and
broadcast and lets the garbage collector have it; the envelope free list
stays because the frozen ``bench/`` package times it.

Pools are deterministic by construction: they hold no clock and no
randomness, and reuse order is a pure function of the (deterministic)
schedule.  ``repro.sim``/``repro.net`` determinism lint covers this
module; nothing here orders anything by ``id()`` (the image reference
counts are looked up by it, never iterated).
"""

from __future__ import annotations

import numpy as np

from repro.net.packet import HEADER_BYTES, Message, next_serial

__all__ = ["MessagePool", "PagePool"]


# Bench-only: ``bench/layers.py`` times acquire/release and sends pooled
# envelopes through a fabric; nothing in the simulator uses this class.
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
    """Free list and reference counts of page-sized ``uint8`` buffers,
    one per fabric.

    Buffers are keyed by length — one cluster has one page size, but the
    pool does not need to assume it.  ``outstanding``, ``high_water``
    and ``cow_copies`` are plain counters: reading them costs nothing
    and keeping them costs one add per buffer handed out.
    """

    __slots__ = (
        "_free", "_refs", "allocated", "reused", "outstanding", "high_water",
        "cow_copies", "__weakref__",
    )

    def __init__(self) -> None:
        self._free: dict[int, list[np.ndarray]] = {}
        #: Every buffer handed out, by ``id()``: 0 while it is private
        #: (writable, one holder), else the holders of the read-only
        #: image it has become.  Free buffers are writable and absent.
        #: Numpy flag writes cost ~0.5 us, so ``writeable`` flips only
        #: when a buffer becomes an image and when its last holder goes.
        self._refs: dict[int, int] = {}
        self.allocated = 0
        self.reused = 0
        #: Buffers handed out and not yet returned, and their maximum.
        self.outstanding = 0
        self.high_water = 0
        #: Copies :meth:`private` made because the image had another holder.
        self.cow_copies = 0

    def take(self, nbytes: int) -> np.ndarray:
        """A private, writable buffer of ``nbytes`` (contents undefined)."""
        stack = self._free.get(nbytes)
        if stack:
            buf = stack.pop()
            self.reused += 1
        else:
            if stack is None:  # release() appends without a lookup miss
                self._free[nbytes] = []
            buf = np.empty(nbytes, dtype=np.uint8)
            self.allocated += 1
        self._refs[id(buf)] = 0
        self.outstanding = n = self.outstanding + 1
        if n > self.high_water:
            self.high_water = n
        return buf

    def zeros(self, nbytes: int) -> np.ndarray:
        """A private buffer of ``nbytes`` zero bytes."""
        buf = self.take(nbytes)
        buf.fill(0)
        return buf

    def copy_of(self, frame: np.ndarray) -> np.ndarray:
        """A private copy of ``frame`` in a pooled buffer."""
        buf = self.take(frame.nbytes)
        buf[:] = frame
        return buf

    def share(self, buf: np.ndarray) -> np.ndarray:
        """Add a holder of ``buf``: it is a read-only image from now on."""
        key = id(buf)
        refs = self._refs.get(key)
        if refs is None:
            raise RuntimeError("sharing a page buffer the pool has not handed out")
        if refs == 0:
            buf.flags.writeable = False
            refs = 1
        self._refs[key] = refs + 1
        return buf

    def release(self, buf: np.ndarray) -> None:
        """Drop a holder; the last one returns the buffer to the free list."""
        refs = self._refs.pop(id(buf), None)
        if refs is None:
            raise RuntimeError("page buffer over-released (no holder left)")
        if refs > 1:
            self._refs[id(buf)] = refs - 1
            return
        if refs:
            buf.flags.writeable = True
        self.outstanding -= 1
        self._free[buf.nbytes].append(buf)

    #: The snapshot-cycle name ``bench.layers`` times (``copy_of`` + ``give``).
    give = release

    def private(self, buf: np.ndarray) -> np.ndarray:
        """``buf``'s bytes in a writable buffer only the caller holds.

        The caller's reference passes to the result: ``buf`` itself when
        the caller is its last holder, else a fresh copy (copy-on-write).
        """
        key = id(buf)
        refs = self._refs[key]
        if refs == 0:
            return buf
        if refs == 1:
            self._refs[key] = 0
            buf.flags.writeable = True
            return buf
        self._refs[key] = refs - 1
        self.cow_copies += 1
        return self.copy_of(buf)
