"""The shared virtual memory — the paper's primary contribution.

A single coherent address space is layered over the simulated cluster's
private memories.  Coherence is *invalidation-based* and maintained at
page granularity, exactly as in IVY:

- pages marked read-only may have copies on many processors;
- a page with write access lives on exactly one processor (its owner);
- before a processor writes, every read copy is invalidated.

Four ownership-location algorithms from the paper (and Li & Hudak's
companion TOCS article) are implemented:

- :class:`repro.svm.centralized.CentralizedProtocol` — the *improved*
  centralized manager: one processor ``H(p)`` maps every page to its
  owner and forwards faults; the copy set travels with the owner,
  eliminating the confirmation message of the naive version.
- :class:`repro.svm.fixed.FixedDistributedProtocol` — the same
  algorithm with manager duty statically distributed by ``H(p) = p mod N``.
- :class:`repro.svm.broadcast.BroadcastProtocol` — no ownership
  information: a fault is broadcast and only the true owner answers.
- :class:`repro.svm.dynamic.DynamicDistributedProtocol` — ownership
  found by chasing per-node ``probOwner`` hints, updated on every
  forward, relinquish and invalidation (the algorithm IVY favours).

`repro.svm.address_space` provides the client-visible typed memory API;
`repro.svm.protocol` holds the fault/serve/invalidate machinery shared
by all four algorithms.
"""

from repro.svm.page import PageTable, PageTableEntry
from repro.svm.protocol import CoherenceProtocol, make_protocol
from repro.svm.broadcast import BroadcastProtocol
from repro.svm.centralized import CentralizedProtocol
from repro.svm.fixed import FixedDistributedProtocol
from repro.svm.dynamic import DynamicDistributedProtocol
from repro.svm.address_space import SharedAddressSpace

__all__ = [
    "PageTable",
    "PageTableEntry",
    "CoherenceProtocol",
    "make_protocol",
    "BroadcastProtocol",
    "CentralizedProtocol",
    "FixedDistributedProtocol",
    "DynamicDistributedProtocol",
    "SharedAddressSpace",
]
