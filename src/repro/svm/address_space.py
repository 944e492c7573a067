"""The client-visible shared virtual memory: typed block reads/writes.

Application processes never see pages; they read and write byte ranges
and typed arrays at virtual addresses, exactly as IVY programs
dereference Pascal pointers into the shared portion of their address
space.  Each operation:

1. checks protection per touched page (the MMU fast path),
2. enters the coherence protocol on a violation (the page fault), and
3. moves the payload with vectorised numpy copies against the frame
   contents — the data plane is real bytes, so protocol bugs surface as
   wrong answers in the numeric golden tests.

Costs: faults charge their own time inside the protocol; the local copy
charges ``ns_per_byte_copy`` per byte (the memcpy the program would
execute).  Arithmetic is charged separately by applications as flops,
so there is no double counting.

One load path and one store path serve every accessor: a plain-call
probe-and-copy (``_copy_out`` / ``_copy_in``) copies straight against
the frames when each spanned page already holds sufficient access, and
a faulting generator (``_fault_out`` / ``_fault_in``, which also holds
the update policy's ``locked_store`` loop) handles the rest.  The
no-fault path is schedule-preserving by construction — ``has_access`` is
pure, the per-page ``data()`` touches happen in the same span order, and
exactly the same one ``Compute`` is yielded — it only removes Python
interpreter work, never a simulated event.  Scalar reads/writes skip the
array round-trip with a fixed-width struct view of the frame.

All generators here must be driven with ``yield from`` inside a
simulated process.  Scalar helpers exist for the common cases; prefer
the array forms — block-granular access is both how real programs touch
memory and what keeps the simulation fast (guide rule: vectorise).
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Generator

import numpy as np

from repro.config import CpuConfig
from repro.machine.mmu import Access, AddressLayout
from repro.metrics.collect import Counters
from repro.sim.process import Compute, Effect
from repro.svm.protocol import CoherenceProtocol

__all__ = ["SharedAddressSpace"]

#: Hoisted Access levels for the inline fast-path probes (see
#: CoherenceProtocol.has_access, whose logic these probes flatten).
_READ = Access.READ
_WRITE = Access.WRITE

# Fixed-width codecs for the scalar fast paths.  Little-endian matches
# numpy's native layout on every platform this simulator targets, so the
# bytes written are identical to the ndarray round-trip they replace.
_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")

#: ``AddressLayout.spans_list`` pieces: (page, offset, buffer offset, length).
_Spans = list[tuple[int, int, int, int]]


class SharedAddressSpace:
    """One node's window onto the single shared address space."""

    def __init__(
        self,
        protocol: CoherenceProtocol,
        layout: AddressLayout,
        cpu: CpuConfig,
        counters: Counters,
    ) -> None:
        self.protocol = protocol
        self.layout = layout
        self.cpu = cpu
        self.counters = counters
        self._memory = protocol.memory
        # Data-plane fast-path bindings.  Both mappings are live views
        # that are never rebound; a probe miss (no entry / insufficient
        # access / frame not resident) falls back to the faulting path,
        # which goes through the real accessors.  Direct frame reads
        # pair with a recency move_to_end, preserving the exact LRU
        # order (and hence the eviction schedule) of PhysicalMemory.data.
        self._entries_get = protocol.table.raw_entries().get
        self._frames_map = protocol.memory.raw_frames()
        self._recency_move = protocol.memory.raw_recency().move_to_end

    # ------------------------------------------------------------------
    # the data plane: one plain-call probe-and-copy and one faulting loop per direction

    def _copy_out(self, spans: _Spans, out: np.ndarray) -> bool:
        """No-fault read: copy ``spans`` into ``out``, or touch nothing and return False."""
        entries_get = self._entries_get
        frames = self._frames_map
        for span in spans:
            e = entries_get(span[0])
            if e is None or e.access < _READ or span[0] not in frames:
                return False
        move = self._recency_move
        for page, off, boff, length in spans:
            move(page)
            out[boff : boff + length] = frames[page][off : off + length]
        return True

    def _fault_out(self, spans: _Spans, out: np.ndarray) -> Generator[Effect, Any, None]:
        """The faulting read: take a read fault on each page that needs one."""
        protocol = self.protocol
        has_access = protocol.has_access
        data = self._memory.data
        for page, off, boff, length in spans:
            if not has_access(page, False):
                yield from protocol.ensure_read(page)
            out[boff : boff + length] = data(page)[off : off + length]

    def _copy_in(self, spans: _Spans, buf: np.ndarray) -> bool:
        """No-fault write: copy ``buf`` in, or touch nothing and return False
        (always, under the update policy)."""
        if self.protocol.update_policy:
            return False
        entries_get = self._entries_get
        frames = self._frames_map
        for span in spans:
            e = entries_get(span[0])
            if e is None or e.access < _WRITE or span[0] not in frames:
                return False
        move = self._recency_move
        for page, off, boff, length in spans:
            move(page)
            frames[page][off : off + length] = buf[boff : boff + length]
        return True

    def _fault_in(self, spans: _Spans, buf: np.ndarray) -> Generator[Effect, Any, None]:
        """The faulting write: per page, a write fault or an update-policy ``locked_store``."""
        protocol = self.protocol
        if protocol.update_policy:
            for page, off, boff, length in spans:
                # Runs inside locked_store, before the loop moves on.
                def writer(frame: np.ndarray) -> None:
                    frame[off : off + length] = buf[boff : boff + length]

                yield from protocol.locked_store(page, writer)
            return
        has_access = protocol.has_access
        data = self._memory.data
        for page, off, boff, length in spans:
            if not has_access(page, True):
                yield from protocol.ensure_write(page)
            data(page)[off : off + length] = buf[boff : boff + length]

    # ------------------------------------------------------------------
    # byte-granular primitives

    def read_bytes(self, addr: int, nbytes: int) -> Generator[Effect, Any, np.ndarray]:
        """Read ``nbytes`` starting at ``addr``; returns a uint8 array."""
        spans = self.layout.spans_list(addr, nbytes)
        out = np.empty(nbytes, dtype=np.uint8)
        if not self._copy_out(spans, out):
            yield from self._fault_out(spans, out)
        self.counters.inc("shared_bytes_read", nbytes)
        yield Compute(nbytes * self.cpu.ns_per_byte_copy)
        return out

    def write_bytes(self, addr: int, data: Any) -> Generator[Effect, Any, None]:
        """Write a buffer (bytes / uint8 array) starting at ``addr``."""
        buf = np.asarray(
            np.frombuffer(data, dtype=np.uint8) if isinstance(data, (bytes, bytearray)) else data,
            dtype=np.uint8,
        ).reshape(-1)
        nbytes = len(buf)
        spans = self.layout.spans_list(addr, nbytes)
        if not self._copy_in(spans, buf):
            yield from self._fault_in(spans, buf)
        self.counters.inc("shared_bytes_written", nbytes)
        yield Compute(nbytes * self.cpu.ns_per_byte_copy)

    # ------------------------------------------------------------------
    # typed array access

    def read_array(
        self, addr: int, dtype: Any, count: int
    ) -> Generator[Effect, Any, np.ndarray]:
        """Read ``count`` items of ``dtype`` from ``addr``."""
        dt = np.dtype(dtype)
        raw = yield from self.read_bytes(addr, dt.itemsize * count)
        return raw.view(dt)

    def write_array(self, addr: int, values: np.ndarray) -> Generator[Effect, Any, None]:
        """Write a typed numpy array at ``addr``."""
        arr = np.ascontiguousarray(values)
        yield from self.write_bytes(addr, arr.view(np.uint8).reshape(-1))

    # ------------------------------------------------------------------
    # mapped (in-place) kernel access — no copy charge
    #
    # A DSM program's compute kernel dereferences mapped pages directly;
    # its operand-access time is part of the arithmetic cost the app
    # charges as flops.  These accessors therefore charge only the
    # coherence costs (faults, transfers) plus a small per-page touch,
    # not a per-byte memcpy — charging both would double-count.  Use
    # read_/write_ for genuine copies (buffers, record exchange), and
    # fetch_/store_ for kernel operands.

    def fetch_array(
        self, addr: int, dtype: Any, count: int
    ) -> Generator[Effect, Any, np.ndarray]:
        """Map ``count`` items of ``dtype`` for in-place kernel reads."""
        dt = np.dtype(dtype)
        nbytes = dt.itemsize * count
        spans = self.layout.spans_list(addr, nbytes)
        out = np.empty(nbytes, dtype=np.uint8)
        if not self._copy_out(spans, out):
            yield from self._fault_out(spans, out)
        yield Compute(len(spans) * self.cpu.ns_per_op)
        return out.view(dt)

    def store_array(self, addr: int, values: np.ndarray) -> Generator[Effect, Any, None]:
        """Write kernel output in place (coherence costs only)."""
        buf = np.ascontiguousarray(values).view(np.uint8).reshape(-1)
        spans = self.layout.spans_list(addr, len(buf))
        if not self._copy_in(spans, buf):
            yield from self._fault_in(spans, buf)
        yield Compute(len(spans) * self.cpu.ns_per_op)

    # ------------------------------------------------------------------
    # scalar helpers: one struct-codec fast path per direction, falling
    # back to the array path when the word is not local or spans pages

    def _read_scalar(
        self, addr: int, codec: struct.Struct, dtype: Any
    ) -> Generator[Effect, Any, Any]:
        span = self.layout.single_span(addr, 8)
        if span is not None:
            e = self._entries_get(span[0])
            frame = self._frames_map.get(span[0])
            if e is not None and frame is not None and e.access >= _READ:
                self._recency_move(span[0])
                value = codec.unpack_from(frame, span[1])[0]
                self.counters.inc("shared_bytes_read", 8)
                yield Compute(8 * self.cpu.ns_per_byte_copy)
                return value
        arr = yield from self.read_array(addr, dtype, 1)
        return arr[0].item()

    def _write_scalar(
        self, addr: int, codec: struct.Struct, dtype: Any, value: Any
    ) -> Generator[Effect, Any, None]:
        span = self.layout.single_span(addr, 8)
        if span is not None and not self.protocol.update_policy:
            e = self._entries_get(span[0])
            frame = self._frames_map.get(span[0])
            if e is not None and frame is not None and e.access >= _WRITE:
                self._recency_move(span[0])
                codec.pack_into(frame, span[1], value)
                self.counters.inc("shared_bytes_written", 8)
                yield Compute(8 * self.cpu.ns_per_byte_copy)
                return
        yield from self.write_array(addr, np.array([value], dtype=dtype))

    def read_f64(self, addr: int) -> Generator[Effect, Any, float]:
        return self._read_scalar(addr, _F64, np.float64)

    def write_f64(self, addr: int, value: float) -> Generator[Effect, Any, None]:
        return self._write_scalar(addr, _F64, np.float64, value)

    def read_i64(self, addr: int) -> Generator[Effect, Any, int]:
        return self._read_scalar(addr, _I64, np.int64)

    def write_i64(self, addr: int, value: int) -> Generator[Effect, Any, None]:
        return self._write_scalar(addr, _I64, np.int64, value)

    # ------------------------------------------------------------------
    # atomic single-page sections (substrate for repro.sync)

    def atomic_update(
        self, addr: int, nbytes: int, fn: Callable[[np.ndarray], Any]
    ) -> Generator[Effect, Any, Any]:
        """Atomically read-modify-write ``nbytes`` at ``addr``.

        ``fn`` receives a mutable uint8 view of the range and returns an
        arbitrary result.  The range must lie within a single page — the
        paper keeps each synchronisation record inside one page for
        exactly this reason (single-page critical sections cannot
        deadlock across nodes; see
        :meth:`repro.svm.protocol.CoherenceProtocol.acquire_page_write`).
        ``fn`` must be plain code: no yields, no access to other shared
        memory.
        """
        pages = list(self.layout.pages_spanned(addr, nbytes))
        if len(pages) != 1:
            raise ValueError(
                f"atomic range [{addr:#x}, +{nbytes}) spans {len(pages)} pages; "
                "synchronisation records must fit in one page"
            )
        page = pages[0]
        entry = yield from self.protocol.acquire_page_write(page)
        try:
            yield Compute(self.cpu.test_and_set)
            frame = self._memory.data(page)
            off = self.layout.offset_in_page(addr)
            result = fn(frame[off : off + nbytes])
            self.counters.inc("atomic_updates")
            if self.protocol.update_policy:
                yield from self.protocol.push_update_locked(page, entry)
        finally:
            self.protocol.release_page_write(page)
        return result
