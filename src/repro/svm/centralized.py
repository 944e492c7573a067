"""The improved centralized manager algorithm.

One distinguished processor (the manager) maintains the owner of every
page.  A faulting processor always asks the manager; the manager
forwards the request to the owner, which replies directly to the
faulting processor (the remote-operation *forwarding* feature — this is
what makes the algorithm the "improved" variant: the copy set lives with
the owner and no confirmation message is needed, because the manager
updates its owner table the moment it forwards a write request).

Message cost per remote fault: 2 (request + reply) when the manager is
the owner or the requester co-resides with the manager, otherwise 3
(request, forward, reply) — plus invalidations for writes.
"""

from __future__ import annotations

from typing import Any

from repro.svm.page import PageTableEntry
from repro.svm.protocol import CoherenceProtocol, ProtocolError

__all__ = ["CentralizedProtocol"]


class CentralizedProtocol(CoherenceProtocol):
    """Improved centralized manager (Li & Hudak section 3.1)."""

    # No op-table rows of its own, and the base rows stay sound for it:
    # the manager's ``_owners`` table is keyed per page, so two same-tick
    # deliveries for different pages commute even when both land on the
    # manager.
    name = "centralized"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.manager_node = self.config.svm.manager_node
        #: Owner table for the pages this node manages (H(p) == node_id).
        self._owners: dict[int, int] = {}

    # ------------------------------------------------------------------

    def manager_of(self, page: int) -> int:
        """The manager mapping H: one node manages every page."""
        return self.manager_node

    def _owner_of(self, page: int) -> int:
        return self._owners.get(page, self.manager_node)

    def manager_owner_view(self, page: int) -> int | None:
        """Checker hook: the page's manager's owner table is
        authoritative, so at quiescence it must name the true owner."""
        if self.node_id != self.manager_of(page):
            return None
        return self._owner_of(page)

    def fault_target(self, page: int, entry: PageTableEntry, write: bool) -> int:
        if self.node_id == self.manager_of(page):
            # The manager faulting on its own behalf looks the owner up
            # directly (a self-request would park behind the page lock
            # this fault already holds).
            owner = self._owner_of(page)
            if owner == self.node_id:
                raise ProtocolError(
                    f"manager {self.node_id}'s table says it owns page {page} while faulting on it"
                )
            if write:
                self._owners[page] = self.node_id
            return owner
        return self.manager_of(page)

    def forward_target(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> int:
        if self.node_id == self.manager_of(page):
            owner = self._owner_of(page)
            if owner == self.node_id:
                raise ProtocolError(
                    f"manager {self.node_id}'s table says it owns page {page}; its entry disagrees"
                )
            return owner
        # A request can only reach a non-manager non-owner transiently
        # (ownership moved while the forward was in flight); route it
        # back through the manager, whose table is already newer.
        return self.manager_of(page)

    def on_forward(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> None:
        if write and self.node_id == self.manager_of(page):
            # Improved algorithm: ownership is recorded at forward time,
            # eliminating the confirmation message of the naive version.
            self._owners[page] = origin

    def on_write_served(self, page: int, origin: int) -> None:
        if self.node_id == self.manager_of(page):
            self._owners[page] = origin
