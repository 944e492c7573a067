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
:class:`repro.net.fabric.Fabric` medium interface; see
:mod:`repro.net.fabric.switched` for the point-to-point alternative.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.config import RingConfig
from repro.net.fabric import Fabric, LinkStats
from repro.net.packet import BROADCAST, Message
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator

__all__ = ["TokenRing", "RingStats"]


class RingStats:
    """Aggregate medium statistics for the shared ring.

    A shared medium is a single link, so the
    :class:`~repro.net.fabric.FabricStats` per-link view
    (:meth:`links`) exposes exactly one entry named ``"medium"``;
    ``peak_backlog_ns`` is the worst queueing delay any transmission
    ever saw behind it.
    """

    __slots__ = (
        "messages",
        "broadcasts",
        "bytes_sent",
        "busy_ns",
        "lost_frames",
        "peak_backlog_ns",
    )

    def __init__(self) -> None:
        self.messages = 0
        self.broadcasts = 0
        self.bytes_sent = 0
        self.busy_ns = 0
        self.lost_frames = 0
        self.peak_backlog_ns = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def links(self) -> dict[str, LinkStats]:
        medium = LinkStats()
        medium.busy_ns = self.busy_ns
        medium.messages = self.messages
        medium.peak_backlog_ns = self.peak_backlog_ns
        return {"medium": medium}


class TokenRing(Fabric):
    """A serialised shared-medium network connecting ``nnodes`` stations."""

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
        self.stats: RingStats = RingStats()
        self._free_at = 0  # medium is idle from this time onward

    # ------------------------------------------------------------------

    def occupancy_ns(self, nbytes: int) -> int:
        """Medium time consumed by one message of ``nbytes``."""
        cfg = self.config
        fragments = max(1, -(-nbytes // cfg.max_frame_bytes))  # ceil div
        wire = (nbytes * 8 * 1_000_000_000) // cfg.bandwidth_bps
        return fragments * cfg.frame_overhead + wire

    # ------------------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Queue ``msg`` for transmission; delivery is scheduled events.

        Returns immediately (the sending *software* cost is charged by the
        transport layer, not here — the medium only models wire time).
        """
        self._check_addressing(msg)
        now = self.sim.now
        free_at = self._free_at
        start = now if now >= free_at else free_at
        backlog = start - now
        # Queueing delay behind the shared medium — the contention that
        # caps dot-product's speedup (histogrammed in ns).
        self.obs.observe("ring.queue_ns", backlog)
        occupancy = self.occupancy_ns(msg.nbytes)
        self._free_at = free_at = start + occupancy
        arrival = free_at + self.config.delivery_latency
        if self._timeline is not None:
            # Windowed busy accounting for the single shared link; the
            # booking above is already final, so this observes only.
            self._timeline.link_busy("medium", start, free_at)

        stats = self.stats
        stats.messages += 1
        stats.bytes_sent += msg.nbytes
        stats.busy_ns += occupancy
        if backlog > stats.peak_backlog_ns:
            stats.peak_backlog_ns = backlog
        if msg.dst == BROADCAST:
            stats.broadcasts += 1
            stations = [n for n in range(self.nnodes) if n != msg.src]
        else:
            stations = [msg.dst]
        # One transmission passes every station at the same instant.
        self._fan_out(msg, stations, repeat(arrival))
