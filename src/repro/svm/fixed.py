"""The fixed distributed manager algorithm.

Manager duty is statically partitioned: page ``p`` is managed by
processor ``H(p) = p mod N`` (the paper's "most straightforward
approach ... distribute pages evenly in a fixed manner to all
processors").  Each manager keeps the owner table for its own pages;
fault handling is otherwise identical to the improved centralized
manager, so this class is that one with a different ``H``, and the
management bottleneck is spread over all processors.
"""

from __future__ import annotations

from repro.svm.centralized import CentralizedProtocol

__all__ = ["FixedDistributedProtocol"]


class FixedDistributedProtocol(CentralizedProtocol):
    """Fixed distributed manager (Li & Hudak section 3.1, distributed)."""

    # No op-table rows of its own, and the base rows stay sound for it:
    # each node's ``_owners`` table is keyed per page (H distributes
    # whole pages).
    name = "fixed"

    def manager_of(self, page: int) -> int:
        """The fixed mapping H: pages are distributed evenly."""
        return page % self.nnodes
