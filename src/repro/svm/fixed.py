"""The fixed distributed manager algorithm.

Manager duty is statically partitioned: page ``p`` is managed by
processor ``H(p) = p mod N`` (the paper's "most straightforward
approach ... distribute pages evenly in a fixed manner to all
processors").  Each manager keeps the owner table for its own pages;
fault handling is otherwise identical to the improved centralized
manager, but the management bottleneck is spread over all processors.
"""

from __future__ import annotations

from typing import Any

from repro.svm.page import PageTableEntry
from repro.svm.protocol import CoherenceProtocol, ProtocolError

__all__ = ["FixedDistributedProtocol"]


class FixedDistributedProtocol(CoherenceProtocol):
    """Fixed distributed manager (Li & Hudak section 3.1, distributed)."""

    # No op-table rows of its own, and the base rows stay sound for it:
    # each node's ``_owners`` table is keyed per page (H distributes
    # whole pages).
    name = "fixed"

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        #: Owner table for the pages this node manages (H(p) == node_id).
        self._owners: dict[int, int] = {}

    # ------------------------------------------------------------------

    def manager_of(self, page: int) -> int:
        """The fixed mapping H: pages are distributed evenly."""
        return page % self.nnodes

    def _owner_of(self, page: int) -> int:
        return self._owners.get(page, self.config.svm.manager_node)

    def manager_owner_view(self, page: int) -> int | None:
        """Checker hook: only the page's fixed manager holds authority."""
        if self.node_id != self.manager_of(page):
            return None
        return self._owner_of(page)

    def fault_target(self, page: int, entry: PageTableEntry, write: bool) -> int:
        if self.node_id == self.manager_of(page):
            # This node manages the page it is faulting on: consult the
            # local owner table directly instead of self-requesting.
            owner = self._owner_of(page)
            if owner == self.node_id:
                raise ProtocolError(
                    f"manager {self.node_id}'s table says it owns page {page} "
                    f"while faulting on it"
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
                    f"manager {self.node_id} table says it owns page {page} "
                    f"but its table entry disagrees"
                )
            return owner
        return self.manager_of(page)

    def on_forward(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> None:
        if write and self.node_id == self.manager_of(page):
            self._owners[page] = origin

    def on_write_served(self, page: int, origin: int) -> None:
        if self.node_id == self.manager_of(page):
            self._owners[page] = origin
