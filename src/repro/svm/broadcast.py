"""The broadcast distributed manager algorithm.

The simplest distributed manager (Li & Hudak's broadcast solution, and
the first reply scheme of the paper's remote-operation module: "a reply
from any receiving processor ... is useful for broadcasting page fault
requests to locate page owners").  There is no ownership information at
all: a faulting processor broadcasts its request, every processor hears
it, and only the true owner answers.

The price is that *every* fault interrupts *every* processor — fine on
a handful of workstations, linearly worse as the ring grows.  The
manager ablation quantifies this against the centralized, fixed and
dynamic algorithms.

How much a broadcast *costs* is the fabric's business
(:mod:`repro.net.fabric`).  On the paper's token ring it is free
snooping — one rotation of the shared medium reaches everyone.  On the
switched backend the same ``send(BROADCAST)`` becomes an explicit
multicast tree: every edge re-transmits the full frame and relay hops
add latency, so this manager pays its true fan-out cost there (the
``golden_switched.json`` determinism fixtures pin it).  Nothing in
this module knows the difference — it just broadcasts.
"""

from __future__ import annotations

from repro.svm.page import PageTableEntry
from repro.svm.protocol import CoherenceProtocol, ProtocolError

__all__ = ["BroadcastProtocol"]


class BroadcastProtocol(CoherenceProtocol):
    """Broadcast distributed manager: owner location by broadcast."""

    # No op-table rows of its own, and the base rows stay sound for it:
    # it keeps no ownership state beyond the page-table entries.
    name = "broadcast"
    locates_by_broadcast = True

    def fault_target(self, page: int, entry: PageTableEntry, write: bool) -> int:
        raise ProtocolError(
            "the broadcast manager never sends point-to-point fault requests"
        )  # pragma: no cover - _locate_request short-circuits

    def forward_target(
        self, page: int, entry: PageTableEntry, origin: int, write: bool
    ) -> int:
        raise ProtocolError(
            "the broadcast manager never forwards fault requests"
        )  # pragma: no cover - non-owners stay silent
