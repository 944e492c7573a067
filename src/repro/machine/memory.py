"""Per-node physical page frames with approximate-LRU tracking.

A node's local memory is "a large cache of the shared virtual memory
address space" (the paper, Section "Shared Virtual Memory").  This class
is the frame pool backing that cache: bounded capacity, recency
tracking, and pinning (pages may not be evicted while a coherence
operation or an atomic synchronisation primitive is mid-flight).

Recency is an ordered dict used as an intrusive LRU list — a touch is an
O(1) move-to-back, a victim scan walks from the coldest end — replacing
the unbounded integer-stamp clock whose ``lru_victim`` rescanned every
frame.  Because the old stamps were unique and monotonic, min-stamp
order and touch order are the same total order: the victim choice (and
therefore the event schedule) is bit-for-bit unchanged.

Under ``replacement="random"`` (every capacity experiment: it is what
Aegis's sampled-use-bit clock degenerates to under cyclic sweeps) the
pool additionally keeps the resident page numbers as a sorted list, so a
victim is the draw-th smallest evictable page without listing and
sorting the pool on every pick.  ``install`` and ``drop`` are the only
mutators of the frame mapping's keys, hence of that index; under LRU it
is not kept at all.

Frames hold real bytes as ``numpy.uint8`` arrays; typed views are taken
by the shared address space, never copies (guide rule: views not copies).
Every frame is a buffer of the fabric's :class:`~repro.net.pool.PagePool`
and may be a read-only image that other nodes' frames and in-flight
replies share: :meth:`install` and :meth:`replace` adopt an image
instead of copying it, :meth:`share` hands one out, :meth:`drop` releases the frame's
reference, and :meth:`make_writable` is the copy-on-write step every
grant of write access goes through.  A frame is written in place only
while it is writable, which means only while this node is its sole
holder.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import OrderedDict

import numpy as np

from repro.config import ConfigError
from repro.net.pool import PagePool

__all__ = ["PhysicalMemory", "FramePressure"]


class FramePressure(RuntimeError):
    """No frame can be freed: every resident page is pinned."""


class PhysicalMemory:
    """A bounded pool of page frames keyed by shared-space page number."""

    def __init__(
        self,
        page_size: int,
        frames: int | None,
        replacement: str = "lru",
        rng: np.random.Generator | None = None,
        pages: PagePool | None = None,
    ) -> None:
        if frames is not None and frames < 2:
            raise ValueError("a node needs at least 2 page frames")
        if replacement not in ("lru", "random"):
            raise ConfigError.unknown("memory.replacement", replacement, ("lru", "random"))
        if replacement == "random" and rng is None:
            raise ValueError(
                'replacement policy "random" needs an rng to draw victims from'
            )
        self.page_size = page_size
        self.capacity = frames
        self.replacement = replacement
        self._rng = rng
        #: Where frames come from and go back to (the fabric's pool in a
        #: cluster, so images can be shared across nodes).
        self.pages = pages if pages is not None else PagePool()
        self._frames: dict[int, np.ndarray] = {}
        self._pins: dict[int, int] = {}
        #: Resident pages in recency order: coldest first, hottest last.
        #: Invariant: exactly the keys of ``_frames``.
        self._recency: OrderedDict[int, None] = OrderedDict()
        #: Random replacement only: the keys of ``_frames`` in ascending
        #: order, so a draw maps to a page without sorting the pool.
        self._sorted: list[int] | None = [] if replacement == "random" else None

    # ------------------------------------------------------------------

    def __contains__(self, page: int) -> bool:
        return page in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._frames) >= self.capacity

    def resident_pages(self) -> list[int]:
        return list(self._frames)

    def raw_frames(self) -> dict[int, np.ndarray]:
        """The live page->frame mapping, for data-plane fast paths.

        Strictly read-only: :meth:`install` and :meth:`drop` are the
        only mutators of this mapping's keys (they keep the recency order
        and the random policy's sorted index in step with it), and
        :meth:`make_writable` may replace a value, so look a frame up
        afresh rather than holding it across a yield.  Every access
        that would have gone through :meth:`data` must pair the lookup
        with a :meth:`raw_recency` ``move_to_end`` so the LRU order (and
        therefore the eviction schedule) stays bit-for-bit what
        :meth:`data` produces.
        """
        return self._frames

    def raw_recency(self) -> OrderedDict[int, None]:
        """The live recency order backing :meth:`raw_frames` fast paths."""
        return self._recency

    # ------------------------------------------------------------------

    def data(self, page: int) -> np.ndarray:
        """The frame contents of a resident page (a live view)."""
        frame = self._frames.get(page)
        if frame is None:
            raise KeyError(f"page {page} not resident")
        self._recency.move_to_end(page)
        return frame

    def touch(self, page: int) -> None:
        """Record a reference for LRU purposes (resident pages only —
        touching a non-resident page would resurrect a stale recency
        entry that later corrupts the victim order)."""
        assert page in self._frames, f"touch of non-resident page {page}"
        self._recency.move_to_end(page)

    def install(self, page: int, data: np.ndarray | None = None) -> np.ndarray:
        """Place ``page`` into a frame (caller must have ensured room).

        ``data`` is a page image from :attr:`pages` whose reference the
        caller hands over: the frame adopts it, no bytes are copied, and
        a frame already resident is released in its favour.  None
        zero-fills a new frame (a resident one is kept as it is).
        Returns the frame array.
        """
        if data is not None and len(data) != self.page_size:
            raise ValueError(
                f"page data is {len(data)} bytes, expected {self.page_size}"
            )
        frame = self._frames.get(page)
        if frame is not None:
            if data is not None:
                return self.replace(page, data)
        else:
            if self.full:
                raise FramePressure(f"no free frame for page {page}")
            if data is None:
                data = self.pages.zeros(self.page_size)
            frame = self._frames[page] = data
            if self._sorted is not None:
                insort(self._sorted, page)
        self._recency[page] = None
        self._recency.move_to_end(page)
        return frame

    def replace(self, page: int, data: np.ndarray) -> np.ndarray:
        """Swap the frame of a resident page for the image ``data``
        (adopted as by :meth:`install`), releasing the old frame."""
        frames = self._frames
        old = frames[page]
        frames[page] = data
        self.pages.release(old)
        self._recency.move_to_end(page)
        return data

    def share(self, page: int) -> np.ndarray:
        """The frame of a resident page as a read-only image with one more
        reference, for the caller to hand on (a read or write reply)."""
        return self.pages.share(self.data(page))

    def make_writable(self, page: int) -> np.ndarray:
        """Copy-on-write: make ``page``'s frame private and writable.

        Copies only when another node's frame or an in-flight reply
        still holds the image; otherwise the frame just becomes writable
        again.  Returns the (possibly new) frame.
        """
        frame = self._frames[page]
        if not frame.flags.writeable:  # an image: a private frame is writable
            frame = self._frames[page] = self.pages.private(frame)
        return frame

    def drop(self, page: int) -> None:
        """Release the frame of ``page`` (must be unpinned)."""
        if self._pins.get(page, 0):
            raise RuntimeError(f"dropping pinned page {page}")
        frame = self._frames.pop(page, None)
        if frame is not None:
            self.pages.release(frame)
            if self._sorted is not None:
                del self._sorted[bisect_left(self._sorted, page)]
        self._recency.pop(page, None)
        # A dropped page must leave no recency residue: a stale entry
        # would make a later reinstall inherit the old position.
        assert page not in self._recency and page not in self._frames

    # ------------------------------------------------------------------
    # pinning

    def pin(self, page: int) -> None:
        self._pins[page] = self._pins.get(page, 0) + 1

    def unpin(self, page: int) -> None:
        count = self._pins.get(page, 0)
        if count <= 0:
            raise RuntimeError(f"unpin of unpinned page {page}")
        if count == 1:
            del self._pins[page]
        else:
            self._pins[page] = count - 1

    def pinned(self, page: int) -> bool:
        return self._pins.get(page, 0) > 0

    # ------------------------------------------------------------------

    def lru_victim(self, skip: set[int] | None = None) -> int:
        """Pick an eviction victim per the configured replacement policy
        (strict LRU, or the random choice Aegis's sampled-use-bit clock
        degenerates to under cyclic sweeps).  Pinned and ``skip``-ped
        pages are never chosen; raises :class:`FramePressure` when no
        candidate exists."""
        resident = self._sorted
        if resident is not None:
            # The draw-th smallest resident page that is neither pinned
            # nor skipped -- what indexing the sorted candidate list
            # gives -- found by stepping the draw past each excluded page
            # at or below it, in ascending order.
            excluded: list[int] = []
            if self._pins or skip:
                frames = self._frames
                excluded = sorted(
                    page
                    for page in self._pins.keys() | (skip or ())
                    if page in frames
                )
            candidates = len(resident) - len(excluded)
            if candidates <= 0:
                raise FramePressure("all resident pages are pinned")
            index = int(self._rng.integers(candidates))
            for page in excluded:
                if page > resident[index]:
                    break
                index += 1
            return resident[index]
        pins = self._pins
        for page in self._recency:  # coldest first
            if pins.get(page, 0):
                continue
            if skip is not None and page in skip:
                continue
            return page
        raise FramePressure("all resident pages are pinned")
