"""The Apollo Domain 12 Mbit/s baseband single token ring.

The ring is modelled as what it physically is: a **shared medium**.  Only
one station transmits at a time, so every message occupies the medium for
``n_fragments * frame_overhead + payload_bits / bandwidth`` and
transmissions queue FIFO behind each other.  This global serialisation is
the honest source of communication contention in the experiments — it is
why the dot-product benchmark (lots of data movement, little compute)
scales poorly while Jacobi scales almost linearly.

Broadcast is native on a ring: a single transmission passes every other
station (the paper exploits this for owner location and invalidation),
and a frame carrying ``targets`` is picked up only by the stations it
names — the ring interface filters it, so nobody else is woken.  Frame
loss is drawn per *station passed*, which exercises the transport's
retransmission protocol.

The ring is the first — and default — implementation of the
:class:`repro.net.fabric.Fabric` medium interface: it supplies the
medium booking (``_book``), and ``Fabric.send`` does the rest.  See
:mod:`repro.net.fabric.switched` for the point-to-point alternative.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

import numpy as np

from repro.config import RingConfig
from repro.net.fabric import Fabric, FabricStats, LinkStats
from repro.net.packet import Message
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator

__all__ = ["TokenRing"]


class TokenRing(Fabric):
    """A serialised shared-medium network connecting ``nnodes`` stations.

    The medium is one link, ``stats.links()["medium"]``; its
    ``peak_backlog_ns`` is the worst queueing delay any transmission
    ever saw behind it.
    """

    name = "ring"

    def __init__(
        self,
        sim: Simulator,
        config: RingConfig,
        nnodes: int,
        rng: np.random.Generator | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        super().__init__(sim, config, nnodes, rng, obs)
        self._bandwidth_bps = config.bandwidth_bps
        self._frame_overhead = config.frame_overhead
        self._medium = LinkStats()
        self.stats = FabricStats({"medium": self._medium})
        self._free_at = 0  # medium is idle from this time onward

    def _book(self, msg: Message, stations: list[int]) -> Iterator[int]:
        """One transmission passes every station at the same instant."""
        now = self.sim.now
        free_at = self._free_at
        start = now if now >= free_at else free_at
        backlog = start - now
        if self.obs.enabled:
            # Queueing delay behind the shared medium — the contention
            # that caps dot-product's speedup (histogrammed in ns).
            self.obs.observe("ring.queue_ns", backlog)
        nbytes = msg.nbytes
        occupancy = self._occupancy.get(nbytes)
        if occupancy is None:
            occupancy = self._occupancy[nbytes] = self.occupancy_ns(nbytes)
        self._free_at = free_at = start + occupancy
        if self._timeline is not None:
            # Windowed busy accounting for the single shared link; the
            # booking above is already final, so this observes only.
            self._timeline.link_busy("medium", start, free_at)
        medium = self._medium
        medium.messages += 1
        medium.busy_ns += occupancy
        if backlog > medium.peak_backlog_ns:
            medium.peak_backlog_ns = backlog
        self.stats.bytes_sent += nbytes
        return repeat(free_at + self.config.delivery_latency)
