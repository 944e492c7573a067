"""The dynamic distributed manager algorithm — IVY's preferred one.

There is no manager at all: every processor keeps a ``probOwner`` hint
per page ("the value ... is just a hint; ... if incorrect it will at
least provide the beginning of a sequence of processors through which
the true owner can be found").  A faulting processor sends its request
to its hint; non-owners forward along their own hints until the true
owner is reached, which replies directly to the origin.

Hints are updated at every opportunity, exactly as the paper lists:

- *forwarding a page-fault request*  → hint := the requesting processor
  (the requester will shortly know — or be — the true owner, so chains
  through it stay convergent and shorten over time);
- *relinquishing ownership*          → hint := the new owner
  (done in the base class's write server);
- *receiving an invalidation*        → hint := the new owner
  (done in the base class's invalidation server);
- completing a read fault            → hint := the replying owner.

Li & Hudak bound the total location cost of K faults on an N-processor
system by O(N + K log N) messages under this policy.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.net.packet import request_size
from repro.sim.process import Effect
from repro.svm.page import PageTableEntry
from repro.svm.protocol import CoherenceProtocol, Op, ProtocolError

__all__ = ["DynamicDistributedProtocol"]


OP_HINT = "svm.hint"


class DynamicDistributedProtocol(CoherenceProtocol):
    """Dynamic distributed manager (Li & Hudak section 3.2).

    With ``SvmConfig.dynamic_broadcast_period = M > 0`` the refinement
    from the same analysis is enabled: after every M ownership transfers
    of a page, its new owner broadcasts the fresh ownership (no-reply
    scheme) so every stale probOwner chain collapses to length one.
    (The refinement's economics depend on the fabric: ring snooping
    makes the refresh nearly free, while the switched backend's
    multicast tree charges a transmission per receiver — see
    :mod:`repro.net.fabric`.)
    """

    name = "dynamic"

    #: A hint refresh only rewrites the named page's probOwner field, so
    #: it is lock-free like invalidation and claimed fan-out-safe.
    OPS = (Op(OP_HINT, "_serve_hint", page=(0,), lock_free=True, fanout=True),)

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.broadcast_period = self.config.svm.dynamic_broadcast_period

    def on_became_owner(self, page: int, entry: PageTableEntry) -> None:
        period = self.broadcast_period
        if period and self.nnodes > 1 and entry.xfer_count % period == 0:
            # Fire-and-forget: a hint refresh must not sit on the fault's
            # critical path (and it needs no replies by design).
            self.remote.driver.spawn(
                self._broadcast_hint(page), f"hint-{self.node_id}-{page}"
            )
            self.counters.inc("hint_broadcasts")

    def _broadcast_hint(self, page: int) -> Generator[Effect, Any, None]:
        yield from self.remote.broadcast(
            OP_HINT, (page, self.node_id), nbytes=request_size(16), scheme="none"
        )

    def _serve_hint(
        self, origin: int, payload: tuple[int, int]
    ) -> Generator[Effect, Any, None]:
        """Lock-free hint refresh (same discipline as invalidation)."""
        page, owner = payload
        entry = self.table.entry(page)
        if not entry.is_owner:
            entry.prob_owner = owner
        return None
        yield  # pragma: no cover - makes this a generator

    def probable_owner_hop(self, page: int) -> int | None:
        """Checker hook: this node's next probOwner hop for ``page``, or
        None when the chain ends here (this node owns the page).  The
        oracle stitches per-node hops together and asserts Li & Hudak's
        invariant that every chain reaches the true owner at quiescence.
        Reads the table without materialising an entry: a page this node
        never touched answers as its lazy default entry would.
        """
        entry = self._entries.get(page)
        if entry is None:
            owner = self.table.default_owner
            return None if owner == self.node_id else owner
        return None if entry.is_owner else entry.prob_owner

    def fault_target(self, page: int, entry: PageTableEntry, write: bool) -> int:
        target = entry.prob_owner
        if target == self.node_id:
            raise ProtocolError(
                f"node {self.node_id} faulting on page {page} has a "
                f"probOwner hint pointing at itself"
            )
        return target

    def forward_target(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> int:
        target = entry.prob_owner
        if target == self.node_id:
            raise ProtocolError(
                f"non-owner {self.node_id} has a self probOwner hint for page {page}"
            )
        if target == origin:
            # Forwarding a processor's fault request back at the faulting
            # processor would park it behind its own page lock forever.
            # Li & Hudak's hint invariant makes this unreachable on the
            # first pass, and the transport's sticky forwarding keeps
            # retransmitted duplicates on the original path; reaching this
            # line therefore indicates a protocol bug.
            raise ProtocolError(
                f"node {self.node_id} would forward page-{page} fault back "
                f"to its origin {origin}"
            )
        return target

    def on_forward(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> None:
        entry.prob_owner = origin
