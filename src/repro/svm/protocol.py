"""Invalidation-based page coherence: the machinery shared by all four
manager algorithms.

The structure follows Li & Hudak's pseudocode: every fault handler and
every server acquires the per-node, per-page table-entry lock, with two
deliberate deviations required by an asynchronous (message-latency)
model:

1. **Invalidation servers are lock-free.**  They atomically set the page
   access to NIL, bump the entry's invalidation epoch, and record the new
   owner as the probable owner.  Taking the entry lock would deadlock in
   the classic cycle: new owner P holds its lock awaiting invalidation
   acks; copy-holder C is itself write-faulting on the page (holding its
   lock, its request parked at P behind P's lock) and C's invalidation
   server would wait on C's lock forever.

2. **Read replies are epoch-checked.**  Because invalidations do not wait
   for a faulting holder's lock, a read-fault reply could in principle be
   overtaken by an invalidation for a newer write (only under frame loss
   and retransmission — the ring itself delivers in order).  The fault
   handler snapshots ``inv_epoch`` before requesting and retries the
   fault if an invalidation landed meanwhile; the invalidation updated
   the ownership hint, so the retry chases the *new* owner.

Servers run as interrupt-level tasks (see `repro.net.remoteop`), so an
owner can serve faults while its application process computes; the
serial resource is the per-page lock, exactly as in the paper.

Fault handling composes with the Aegis pager: an owner whose page image
was evicted to disk pages it back in before serving — these are the disk
transfers Table 1 counts.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Any, Callable, Generator, Mapping, NamedTuple

import numpy as np

from repro.config import ClusterConfig, ConfigError
from repro.machine.memory import PhysicalMemory
from repro.machine.mmu import Access, AddressLayout
from repro.machine.pager import Pager
from repro.metrics.collect import Counters
from repro.net.packet import declare_op_page, request_size
from repro.net.remoteop import Forward, NO_REPLY, RemoteOp, Reply
from repro.obs import NULL_OBS, Observability, Span
from repro.sim.kernel import Simulator
from repro.sim.process import Compute, Effect
from repro.svm.page import PageTable, PageTableEntry

__all__ = ["CoherenceProtocol", "Op", "ProtocolError", "make_protocol"]

OP_READ = "svm.read"
OP_WRITE = "svm.write"

#: Hoisted Access levels: fast-path checks compare the IntEnum directly
#: (a C-level int comparison) instead of dispatching permits_*().
_READ = Access.READ
_WRITE = Access.WRITE
OP_INV = "svm.inv"
OP_CHOWN = "svm.chown"
OP_LOCATE = "svm.locate"
OP_UPDATE = "svm.update"

#: Reply meaning "I no longer own this page, ask again" — used only by
#: the broadcast manager, whose transfers are locate-then-unicast.
RETRY = "svm.retry"

#: Wire size of a fault request: header + page number.
FAULT_REQUEST_BYTES = request_size(8)

#: Legal values of ``SvmConfig.write_policy``.
WRITE_POLICIES = ("invalidate", "update")


class Op(NamedTuple):
    """One remote operation of the coherence protocol, declared once, as
    a row of its manager class's ``OPS``: registration, delivery labels,
    the schedule explorer and the static verifier (which parses the row
    literals and checks each handler body against its row) all read it."""

    name: str
    #: Name of the generator method ``handler(origin, payload)``.
    handler: str
    #: Where the request payload carries the page number, as an index
    #: path: ``()`` the payload *is* the page, ``(0,)`` ``payload[0]``
    #: is.  None: the op concerns no single page — its deliveries are
    #: labelled ``p?`` and commute with nothing.
    page: tuple[int, ...] | None = None
    #: Forwarded until it reaches the page's owner: a non-owner answers
    #: through :meth:`CoherenceProtocol._not_owner`, and a duplicate of a
    #: request this node once forwarded is served here if ownership has
    #: since arrived (the transport's duplicate probe).
    owner_served: bool = False
    #: The handler must never acquire an entry lock (module docstring,
    #: deviation 1).
    lock_free: bool = False
    #: Claimed fan-out-safe: deliveries of this op at *different* nodes
    #: commute even for the same page, because each only rewrites its
    #: target's own per-page state and the origin aggregates the replies
    #: order-insensitively.  A claim, not a licence — the explorer
    #: commutes only the ops whose claim the verifier proved.
    fanout: bool = False


class ProtocolError(RuntimeError):
    """An invariant of the coherence protocol was violated."""


class CoherenceProtocol:
    """Base class: fault handling, page service, invalidation, eviction.

    Subclasses supply the ownership-location policy via
    :meth:`fault_target` (where a faulting processor sends its request)
    and :meth:`forward_target` (where a non-owner server forwards it),
    plus the hint/manager-table updates in :meth:`on_forward` and
    :meth:`on_write_forwarded`.
    """

    name = "base"

    #: The ops this class serves.  A subclass lists only the rows it
    #: adds; :meth:`op_table` merges along the MRO.
    OPS: tuple[Op, ...] = (
        Op(OP_READ, "_serve_read", page=(), owner_served=True),
        Op(OP_WRITE, "_serve_write", page=(), owner_served=True),
        Op(OP_CHOWN, "_serve_chown", page=(), owner_served=True),
        Op(OP_LOCATE, "_serve_locate", page=(), fanout=True),
        Op(OP_INV, "_serve_inv", page=(0,), lock_free=True, fanout=True),
        Op(OP_UPDATE, "_serve_update", page=(0,), lock_free=True, fanout=True),
    )

    @classmethod
    @functools.cache
    def op_table(cls) -> Mapping[str, Op]:
        """Every op an instance of this class serves, by name: its own
        rows over its bases' (nearest class wins).  Merged once per
        class, which is also when each row's page path is declared to
        the net layer (a conflict with another class's raises here)."""
        table: dict[str, Op] = {}
        for klass in reversed(cls.__mro__):
            for row in vars(klass).get("OPS", ()):
                declare_op_page(row.name, row.page)
                table[row.name] = row
        return MappingProxyType(table)

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        nnodes: int,
        layout: AddressLayout,
        table: PageTable,
        memory: PhysicalMemory,
        pager: Pager,
        remote: RemoteOp,
        config: ClusterConfig,
        counters: Counters,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.nnodes = nnodes
        self.layout = layout
        self.table = table
        self.memory = memory
        #: The live page->entry and page->frame mappings and recency order
        #: (read-only here), for _grant and the client fast paths: a page
        #: with no entry yet goes through ``table.entry``, which makes one.
        self._entries = table.raw_entries()
        self._frames = memory.raw_frames()
        self._touch = memory.raw_recency().move_to_end
        self.pager = pager
        self.remote = remote
        self.config = config
        self.counters = counters
        self.obs = obs
        self.page_size = layout.page_size
        #: Constant CPU charges, each one effect yielded by every use.
        self._fault_cpu = Compute(config.svm.fault_handler_cost)
        self._copy_cpu = Compute(self.page_size * config.cpu.ns_per_byte_copy)
        self._inv_cpu = Compute(config.cpu.ns_per_op * 20)
        #: Online coherence oracle (repro.analysis), attached by the
        #: cluster when ``ClusterConfig.checker`` is set.  Checking is
        #: pure observation: the oracle never yields effects, so it can
        #: run inside servers and fault handlers without perturbing
        #: simulated time.
        self.checker: Any = None
        #: Page buffers and image reference counts (repro.net.pool): the
        #: pool this node's frames come from, shared cluster-wide.  A read
        #: reply carries the owner's frame itself as a shared image; the
        #: requester's reference passes to its frame at install, or is
        #: released if the copy went stale in flight.
        self._pages = memory.pages
        if config.svm.write_policy not in WRITE_POLICIES:
            raise ConfigError.unknown(
                "svm.write_policy", config.svm.write_policy, WRITE_POLICIES
            )
        #: "update" keeps read copies alive and pushes fresh page contents
        #: to the copy set on every write (extension; IVY invalidates).
        self.update_policy = config.svm.write_policy == "update"

        # Duplicate probe: a retransmitted fault request that this node
        # once forwarded should be *served* here if ownership has since
        # arrived (otherwise the stale sticky route loops it away forever).
        def owns(page: int) -> bool:
            return self.table.entry(page).is_owner

        for row in self.op_table().values():
            remote.register(row.name, getattr(self, row.handler))
            if row.owner_served:
                remote.register_local_probe(row.name, owns)
        pager.set_eviction_policy(self._evict)

    def _note(self, category: str, **fields: Any) -> None:
        """Publish one protocol transition to the checker.  Callers test
        ``self.checker is not None`` first: the fields cost a dict."""
        self.checker.on_event(category, self.sim.now, fields)

    def manager_owner_view(self, page: int) -> int | None:
        """The owner this node's *manager state* believes ``page`` has,
        or None when this node keeps no authority over the page.  The
        manager algorithms override this; the oracle cross-checks it
        against the true owner at quiescent points."""
        return None

    # ------------------------------------------------------------------
    # policy hooks (implemented by the four manager algorithms)

    def fault_target(self, page: int, entry: PageTableEntry, write: bool) -> int:
        """Processor a faulting node sends its request to.

        When the faulting processor is itself the manager of the page it
        consults its own ownership table directly (a self-request would
        park behind the very page lock the fault holds) and, for writes,
        records itself as the new owner — the same at-forward-time update
        the manager performs for remote requesters.
        """
        raise NotImplementedError

    def forward_target(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> int:
        """Next hop for a request that arrived at a non-owner."""
        raise NotImplementedError

    def on_forward(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> None:
        """Hint/manager-table update performed when forwarding."""

    def on_write_served(self, page: int, origin: int) -> None:
        """Called after this node relinquished ownership of ``page`` to
        ``origin`` by serving a write fault.  Manager algorithms use it to
        keep the ownership table current when the manager itself was the
        owner (no forward happened, so :meth:`on_forward` never ran)."""

    def on_became_owner(self, page: int, entry: PageTableEntry) -> None:
        """Called (lock held) right after this node acquired ownership."""

    #: True for the broadcast distributed manager: faults are located by
    #: broadcasting; non-owner servers stay silent instead of forwarding.
    locates_by_broadcast = False

    def _locate_request(
        self,
        page: int,
        entry: PageTableEntry,
        op: str,
        write: bool,
        span: Span | None = None,
    ) -> Generator[Effect, Any, Any]:
        """The fault request's generator: one remote request to where
        :meth:`fault_target` says the owner is, or, under the broadcast
        manager, :meth:`_locate_by_broadcast`.  A plain call, so the
        fault waits in the transport's own frame."""
        if self.locates_by_broadcast:
            return self._locate_by_broadcast(page, op, span)
        return self.remote.request(
            self.fault_target(page, entry, write=write), op, page,
            nbytes=FAULT_REQUEST_BYTES, span=span,
        )

    def _locate_by_broadcast(
        self, page: int, op: str, span: Span | None
    ) -> Generator[Effect, Any, Any]:
        """The broadcast manager's two-phase fault request: a pure
        location broadcast (no side effects anywhere — non-owners stay
        silent, the owner replies with its identity *without* acting),
        then a point-to-point transfer to the located owner.  The split
        matters for correctness: a one-phase broadcast transfer can be
        served twice — once by the owner at delivery time and again by
        whichever node has *become* owner by the time its parked copy of
        the request gets the page lock — orphaning the page's ownership.
        If ownership moved between the phases, the unicast is answered
        with RETRY and the location starts over.
        """
        while True:
            owner = yield from self.remote.broadcast(
                OP_LOCATE, page, nbytes=FAULT_REQUEST_BYTES, scheme="any",
                span=span,
            )
            value = yield from self.remote.request(
                owner, op, page, nbytes=FAULT_REQUEST_BYTES, span=span
            )
            if value == RETRY:
                self.counters.inc("locate_retries")
                continue
            return value

    def _serve_locate(self, origin: int, page: int) -> Generator[Effect, Any, Any]:
        """Owner-location broadcast: reply with our identity if and only
        if we own the page; otherwise stay silent.  Completely free of
        side effects, so retransmitted duplicates may re-execute."""
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            if entry.is_owner:
                return Reply(self.node_id, nbytes=48)
            return NO_REPLY
        finally:
            entry.lock.release()

    # ------------------------------------------------------------------
    # client side: called by the shared address space

    def has_access(self, page: int, write: bool) -> bool:
        """MMU fast-path check: protection sufficient and frame resident.

        Pure (no touch, no lock): the data-plane fast path probes every
        spanned page with this before copying anything."""
        entry = self._entries.get(page) or self.table.entry(page)
        # Access is an IntEnum: comparing against WRITE/READ directly is
        # the permits_* predicates without the method dispatch.
        needed = entry.access >= (_WRITE if write else _READ)
        return needed and page in self._frames

    def ensure_read(self, page: int) -> Generator[Effect, Any, None]:
        """Make ``page`` readable locally, faulting if necessary."""
        entry = self._entries.get(page) or self.table.entry(page)
        if entry.access >= _READ and page in self._frames:
            self._touch(page)
            return
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            if entry.access >= _READ and page in self.memory:
                return
            if entry.is_owner:
                # Owner whose frame is on disk (or never touched): Aegis
                # page-in, no coherence traffic.
                yield from self._materialize_owner(page, entry)
                return
            started = self.sim.now
            self.counters.inc("read_faults")
            if self.checker is not None:
                self._note("svm.fault_begin", node=self.node_id, page=page, write=False)
            span = (
                self.obs.span_begin("fault.read", node=self.node_id, page=page)
                if self.obs.enabled else None
            )
            try:
                yield self._fault_cpu
                while True:
                    epoch = entry.inv_epoch
                    data, owner = yield from self._locate_request(
                        page, entry, OP_READ, write=False, span=span
                    )
                    if entry.inv_epoch != epoch:
                        # Our copy was invalidated while in flight: the page
                        # has a newer owner; chase it.
                        if data is not None:
                            self._pages.release(data)
                        self.counters.inc("stale_read_retries")
                        continue
                    # `data` is the owner's frame as a shared read-only
                    # image (None: zero-fill); the frame adopts it along
                    # with our reference to it.
                    if self.pager.try_install(page, data) is None:
                        yield from self.pager.install(page, data)
                    if entry.inv_epoch != epoch:
                        # install() may consume time under frame pressure
                        # (evictions hit the disk); an invalidation that
                        # landed during that window makes the image stale.
                        self.memory.drop(page)
                        self.counters.inc("stale_read_retries")
                        continue
                    entry.access = Access.READ
                    entry.prob_owner = owner
                    break
                latency = self.sim.now - started
                self.counters.inc("read_fault_ns", latency)
                if self.obs.enabled:
                    self.obs.observe("fault.read_ns", latency)
                if self.checker is not None:
                    self._note(
                        "svm.read_fault", node=self.node_id, page=page, owner=owner, ns=latency
                    )
            finally:
                if span is not None:
                    self.obs.span_end(span)
        finally:
            entry.lock.release()

    def ensure_write(self, page: int) -> Generator[Effect, Any, None]:
        """Make ``page`` writable locally (sole copy), faulting if needed."""
        entry = self._entries.get(page) or self.table.entry(page)
        if entry.access >= _WRITE and page in self._frames:
            self._touch(page)
            return
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            yield from self._ensure_write_locked(page, entry)
        finally:
            entry.lock.release()

    def acquire_page_write(self, page: int) -> Generator[Effect, Any, PageTableEntry]:
        """Acquire the page's entry lock and write access, and *keep the
        lock held* on return.

        This is the substrate of IVY's atomic synchronisation primitives
        ("implemented by pinning memory pages and using test-and-set"):
        while the lock is held, remote fault requests for the page park
        behind it, so a read-modify-write of a record inside the page is
        atomic cluster-wide.  Callers must pair with
        :meth:`release_page_write` and must not touch other shared pages
        in between (single-page critical sections cannot deadlock; see
        `repro.sync`).
        """
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        yield from self._ensure_write_locked(page, entry)
        self.memory.pin(page)
        return entry

    def release_page_write(self, page: int) -> None:
        """Release the pin and lock taken by :meth:`acquire_page_write`."""
        self.memory.unpin(page)
        self.table.entry(page).lock.release()

    def _ensure_write_locked(
        self, page: int, entry: PageTableEntry
    ) -> Generator[Effect, Any, None]:
        """Write-fault body; caller holds ``entry.lock``."""
        if entry.access >= _WRITE and page in self._frames:
            self._touch(page)
            return
        started = self.sim.now
        if entry.is_owner:
            # Upgrade in place: the owner knows the copy set locally.
            yield from self._materialize_owner(page, entry)
            if entry.copy_set and not self.update_policy:
                self.counters.inc("write_faults")
                if self.checker is not None:
                    self._note("svm.fault_begin", node=self.node_id, page=page, write=True)
                span = self.obs.span_begin(
                    "fault.write", node=self.node_id, page=page,
                    start=started, upgrade=True,
                ) if self.obs.enabled else None
                try:
                    yield self._fault_cpu
                    yield from self._invalidate(page, entry.copy_set, span=span)
                    invalidated = sorted(entry.copy_set)
                    entry.copy_set = set()
                    latency = self.sim.now - started
                    self.counters.inc("write_fault_ns", latency)
                    if self.obs.enabled:
                        self.obs.observe("fault.write_ns", latency)
                    self._grant(page, entry, _WRITE)
                    if self.checker is not None:
                        self._note(
                            "svm.write_upgrade",
                            node=self.node_id, page=page, invalidated=invalidated,
                            ns=latency,
                        )
                    return
                finally:
                    if span is not None:
                        self.obs.span_end(span)
            self._grant(page, entry, _WRITE)
            return
        self.counters.inc("write_faults")
        if self.checker is not None:
            self._note("svm.fault_begin", node=self.node_id, page=page, write=True)
        span = self.obs.span_begin(
            "fault.write", node=self.node_id, page=page, start=started
        ) if self.obs.enabled else None
        try:
            yield self._fault_cpu
            data, copy_set, xfer = yield from self._locate_request(
                page, entry, OP_WRITE, write=True, span=span
            )
            if self.pager.try_install(page, data) is None:
                yield from self.pager.install(page, data)
            entry.is_owner = True
            entry.on_disk = False
            entry.prob_owner = self.node_id
            entry.xfer_count = xfer
            holders = set(copy_set) - {self.node_id}
            if self.update_policy:
                # Copies stay alive; the new owner inherits the copy set and
                # keeps it fresh on every store.
                entry.copy_set = holders
            else:
                if holders:
                    yield from self._invalidate(page, holders, span=span)
                entry.copy_set = set()
            # After the invalidations: their drops usually leave the
            # adopted image with no other holder, so nothing is copied.
            self._grant(page, entry, _WRITE)
            latency = self.sim.now - started
            self.counters.inc("write_fault_ns", latency)
            if self.obs.enabled:
                self.obs.observe("fault.write_ns", latency)
        finally:
            if span is not None:
                self.obs.span_end(span)
        self.on_became_owner(page, entry)
        if self.checker is not None:
            self._note(
                "svm.write_fault", node=self.node_id, page=page,
                invalidated=sorted(holders),
                ns=latency,
            )

    # ------------------------------------------------------------------
    # owner-side helpers

    def _grant(self, page: int, entry: PageTableEntry, access: Access) -> None:
        """Set this node's access to ``page``: the one place write access
        is granted.  A resident frame becomes private first (copy-on-write
        if another node or an in-flight reply holds the same image), so a
        writable frame is never shared."""
        if access is _WRITE:
            frame = self._frames.get(page)
            if frame is not None and not frame.flags.writeable:
                self.memory.make_writable(page)
        entry.access = access

    def _materialize_owner(
        self, page: int, entry: PageTableEntry
    ) -> Generator[Effect, Any, None]:
        """Bring the owner's frame back (disk page-in or first-touch zeros)
        and restore the protection the owner is entitled to."""
        if page not in self.memory:
            if entry.on_disk:
                yield from self.pager.page_in(page)
                entry.on_disk = False
            elif self.pager.try_install(page, None) is None:
                yield from self.pager.install(page, None)
        else:
            self.memory.touch(page)
        if entry.access is Access.NIL:
            self._grant(
                page, entry,
                Access.WRITE if self.update_policy else entry.owner_access(),
            )

    def _invalidate(
        self, page: int, holders: set[int], span: Span | None = None
    ) -> Generator[Effect, Any, None]:
        """Invalidate every read copy; waits for all acknowledgements
        (the broadcast "replies from all" scheme of the paper)."""
        targets = tuple(sorted(holders))
        self.counters.inc("invalidations_sent", len(targets))
        if self.checker is not None:
            self._note("svm.invalidate", node=self.node_id, page=page, targets=targets)
        if self.obs.enabled:
            self.obs.observe("inv.fanout", len(targets))
        ispan = self.obs.span_begin(
            "inv", parent=span, node=self.node_id, page=page, fanout=len(targets)
        ) if self.obs.enabled else None
        try:
            yield from self.remote.multicast(
                targets, OP_INV, (page, self.node_id), nbytes=request_size(16),
                span=ispan,
            )
        finally:
            if ispan is not None:
                self.obs.span_end(ispan)

    # ------------------------------------------------------------------
    # servers (run as interrupt-level tasks on the serving node)

    def _not_owner(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> Reply | Forward:
        """What an ``owner_served`` op answers at a node that does not
        own ``page`` (entry lock held): RETRY under locate-by-broadcast
        (ownership moved since the location phase), else pass the
        request along the manager algorithm's route to the owner."""
        if self.locates_by_broadcast:
            return Reply(RETRY, nbytes=48)
        nxt = self.forward_target(page, entry, origin, write=write)
        self.on_forward(page, entry, origin, write=write)
        self.counters.inc("faults_forwarded")
        return Forward(nxt)

    def _serve_read(self, origin: int, page: int) -> Generator[Effect, Any, Any]:
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            if not entry.is_owner:
                return self._not_owner(page, entry, origin, write=False)
            if origin == self.node_id:
                raise ProtocolError(f"owner {origin} read-faulted on its own page {page}")
            if page not in self.memory and not entry.on_disk:
                # Never-written page: grant a zero-fill copy without
                # shipping a kilobyte of zeros (zero-fill-on-demand).
                entry.copy_set.add(origin)
                entry.access = Access.READ if entry.access is not Access.NIL else entry.access
                self.counters.inc("zero_grants")
                if self.checker is not None:
                    self._note(
                        "svm.grant", node=self.node_id, page=page, to=origin,
                        write=False, zero=True,
                    )
                return Reply((None, self.node_id), nbytes=48)
            yield from self._materialize_owner(page, entry)
            entry.copy_set.add(origin)
            entry.access = Access.READ
            # Ship the frame itself as a shared read-only image: the owner
            # writes it again only after _grant's copy-on-write, so the
            # bytes in flight stay the serve-time bytes.  The Compute
            # still charges the copy the real machine makes.
            data = self.memory.share(page)
            yield self._copy_cpu
            self.counters.inc("page_copies_sent")
            if self.checker is not None:
                self._note(
                    "svm.grant", node=self.node_id, page=page, to=origin,
                    write=False, zero=False,
                )
            return Reply((data, self.node_id), nbytes=self.page_size + 48)
        finally:
            entry.lock.release()

    def _serve_write(self, origin: int, page: int) -> Generator[Effect, Any, Any]:
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            if not entry.is_owner:
                return self._not_owner(page, entry, origin, write=True)
            if origin == self.node_id:
                raise ProtocolError(f"owner {origin} write-faulted on its own page {page}")
            if page not in self.memory and not entry.on_disk:
                # Never-written page: transfer ownership zero-filled.
                data = None
                nbytes = 48
                self.counters.inc("zero_grants")
            else:
                yield from self._materialize_owner(page, entry)
                data = self.memory.share(page)
                nbytes = self.page_size + 48
            keep_copy = self.update_policy and data is not None
            members = set(entry.copy_set)
            if keep_copy:
                members.add(self.node_id)
            copy_set = tuple(sorted(members))
            xfer = entry.xfer_count + 1
            # Relinquish ownership: the requester becomes the owner.
            # Under the invalidation policy the old owner drops its frame
            # (the requester invalidates the copy set); under the update
            # policy it demotes itself to a read copy the new owner will
            # keep fresh.
            entry.is_owner = False
            entry.copy_set = set()
            entry.prob_owner = origin
            if entry.on_disk:
                self.pager.disk.discard(page)
                entry.on_disk = False
            if keep_copy:
                entry.access = Access.READ
            else:
                entry.access = Access.NIL
                if page in self.memory:
                    self.memory.drop(page)
            self.on_write_served(page, origin)
            if self.checker is not None:
                self._note(
                    "svm.grant", node=self.node_id, page=page, to=origin,
                    write=True, zero=data is None, copy_set=list(copy_set),
                )
            if data is not None:
                yield self._copy_cpu
            self.counters.inc("page_transfers_sent")
            return Reply((data, copy_set, xfer), nbytes=nbytes + 8 * len(copy_set))
        finally:
            entry.lock.release()

    def take_ownership(self, page: int) -> Generator[Effect, Any, None]:
        """Acquire ownership of ``page`` *without* transferring its bytes.

        Used by process migration for the upper portion of a migrating
        process's stack: "the upper portion of the stack need not move to
        the destination processor because its content is meaningless.
        Ownership transfer is inexpensive because it only requires
        setting the protection bits."  The caller asserts the content is
        dead; the new owner's frame materialises zero-filled on first
        touch.
        """
        entry = self.table.entry(page)
        if entry.is_owner and entry.access >= _WRITE:
            return
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            if entry.is_owner:
                if entry.copy_set:
                    yield from self._invalidate(page, entry.copy_set)
                    entry.copy_set = set()
                self._grant(page, entry, entry.owner_access())
                return
            if self.checker is not None:
                self._note("svm.fault_begin", node=self.node_id, page=page, write=True)
            started = self.sim.now
            span = (
                self.obs.span_begin("fault.chown", node=self.node_id, page=page)
                if self.obs.enabled else None
            )
            try:
                copy_set, xfer = yield from self._locate_request(
                    page, entry, OP_CHOWN, write=True, span=span
                )
                entry.is_owner = True
                entry.on_disk = False
                entry.prob_owner = self.node_id
                entry.xfer_count = xfer
                holders = set(copy_set) - {self.node_id}
                if holders:
                    yield from self._invalidate(page, holders, span=span)
                entry.copy_set = set()
                self._grant(page, entry, _WRITE)
                self.counters.inc("ownership_transfers")
                if self.obs.enabled:
                    self.obs.observe("fault.chown_ns", self.sim.now - started)
            finally:
                if span is not None:
                    self.obs.span_end(span)
            self.on_became_owner(page, entry)
            if self.checker is not None:
                self._note("svm.chown", node=self.node_id, page=page)
        finally:
            entry.lock.release()

    def _serve_chown(self, origin: int, page: int) -> Generator[Effect, Any, Any]:
        """Relinquish ownership without sending the page image."""
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            if not entry.is_owner:
                return self._not_owner(page, entry, origin, write=True)
            if origin == self.node_id:
                raise ProtocolError(f"owner {origin} chown-requested its own page {page}")
            copy_set = tuple(sorted(entry.copy_set))
            xfer = entry.xfer_count + 1
            entry.is_owner = False
            entry.access = Access.NIL
            entry.copy_set = set()
            entry.prob_owner = origin
            if entry.on_disk:
                self.pager.disk.discard(page)
                entry.on_disk = False
            if page in self.memory:
                self.memory.drop(page)
            self.on_write_served(page, origin)
            if self.checker is not None:
                self._note(
                    "svm.grant", node=self.node_id, page=page, to=origin,
                    write=True, zero=True, copy_set=list(copy_set),
                )
            return Reply((copy_set, xfer), nbytes=48 + 8 * len(copy_set))
        finally:
            entry.lock.release()

    def push_update_locked(self, page: int, entry: PageTableEntry) -> Generator[Effect, Any, None]:
        """Multicast this page's fresh contents to every copy holder.

        Caller holds ``entry.lock`` and is the owner; the lock spans the
        store *and* the push, so an ownership transfer observes either
        the pre-store or the fully-pushed state — never a mutated frame
        whose copies were silently left stale."""
        if not entry.copy_set:
            return
        # One pooled snapshot for every receiver: each one that applies
        # it shares it as its frame; ours is released once all acked.
        data = self._pages.copy_of(self.memory.data(page))
        yield self._copy_cpu
        self.counters.inc("updates_sent", len(entry.copy_set))
        if self.obs.enabled:
            self.obs.observe("update.fanout", len(entry.copy_set))
        try:
            yield from self.remote.multicast(
                tuple(sorted(entry.copy_set)), OP_UPDATE, (page, data),
                nbytes=self.page_size + 48,
            )
        finally:
            self._pages.release(data)

    def locked_store(
        self, page: int, writer: Callable[[np.ndarray], None]
    ) -> Generator[Effect, Any, None]:
        """Write-policy-aware store: take the page lock, get write access,
        apply ``writer(frame)`` (plain code), and push updates to copy
        holders (update policy only).  The invalidation policy's stores
        use the lock-free fast path instead."""
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            yield from entry.lock.acquire()
        try:
            yield from self._ensure_write_locked(page, entry)
            writer(self.memory.data(page))
            yield from self.push_update_locked(page, entry)
        finally:
            entry.lock.release()

    def _serve_update(
        self, origin: int, payload: tuple[int, Any]
    ) -> Generator[Effect, Any, bool]:
        """Apply a pushed page image to our read copy (lock-free, like
        invalidation).  If we have no frame to apply it to — e.g. a read
        grant is still in flight — bump the invalidation epoch so the
        pending fault retries and fetches the fresh bytes."""
        page, data = payload
        entry = self.table.entry(page)
        if entry.is_owner:
            raise ProtocolError(
                f"node {self.node_id} received an update for page {page} it owns"
            )
        if page in self.memory and entry.access >= _READ:
            # Replace, never overwrite: the old frame may be an image
            # other nodes still share.
            self.memory.replace(page, self._pages.share(data))
        else:
            entry.inv_epoch += 1
        entry.prob_owner = origin
        self.counters.inc("updates_received")
        if self.checker is not None:
            self._note(
                "svm.update_recv", node=self.node_id, page=page,
                applied=page in self.memory and entry.access >= _READ,
            )
        yield self._copy_cpu
        return True

    def _serve_inv(self, origin: int, payload: tuple[int, int]) -> Generator[Effect, Any, bool]:
        """Lock-free invalidation (see module docstring for why)."""
        page, new_owner = payload
        entry = self.table.entry(page)
        if entry.is_owner:
            raise ProtocolError(
                f"node {self.node_id} received invalidation for page {page} it owns"
            )
        entry.access = Access.NIL
        entry.prob_owner = new_owner
        entry.inv_epoch += 1
        if page in self.memory and not self.memory.pinned(page):
            self.memory.drop(page)
        self.counters.inc("invalidations_received")
        if self.checker is not None:
            self._note(
                "svm.inv_recv", node=self.node_id, page=page,
                owner=new_owner, epoch=entry.inv_epoch,
            )
        yield self._inv_cpu
        return True

    # ------------------------------------------------------------------
    # eviction policy (invoked by the pager under frame pressure)

    def _evict(self, page: int) -> Generator[Effect, Any, bool]:
        entry = self.table.entry(page)
        if not entry.lock.try_acquire():
            return False  # protocol operation in flight: veto this victim
        try:
            if page not in self.memory:
                return True
            if self.memory.pinned(page):
                return False
            if entry.is_owner:
                yield from self.pager.page_out(page)
                entry.on_disk = True
                entry.access = Access.NIL
                self.counters.inc("owner_pageouts")
                if self.checker is not None:
                    self._note("svm.drop", node=self.node_id, page=page, pageout=True)
            else:
                # A read copy can be dropped silently: the owner keeps the
                # data, and a later invalidation to a non-holder is a no-op.
                self.memory.drop(page)
                entry.access = Access.NIL
                self.counters.inc("copy_drops")
                if self.checker is not None:
                    self._note("svm.drop", node=self.node_id, page=page, pageout=False)
            return True
        finally:
            entry.lock.release()


@functools.cache
def _protocol_classes() -> Mapping[str, type[CoherenceProtocol]]:
    """The manager algorithms by name.  Imported on first use — the
    manager modules import this one — and once, not once per node."""
    from repro.svm.broadcast import BroadcastProtocol
    from repro.svm.centralized import CentralizedProtocol
    from repro.svm.dynamic import DynamicDistributedProtocol
    from repro.svm.fixed import FixedDistributedProtocol

    return {
        "centralized": CentralizedProtocol,
        "fixed": FixedDistributedProtocol,
        "dynamic": DynamicDistributedProtocol,
        "broadcast": BroadcastProtocol,
    }


def make_protocol(algorithm: str, **kwargs: Any) -> CoherenceProtocol:
    """Instantiate the named coherence algorithm for one node."""
    classes = _protocol_classes()
    if algorithm not in classes:
        raise ConfigError.unknown("svm.algorithm", algorithm, classes)
    return classes[algorithm](**kwargs)
