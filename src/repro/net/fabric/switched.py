"""A switched point-to-point interconnect with multicast-tree broadcast.

Where the token ring serialises *all* traffic behind one shared medium,
the switched fabric gives every station a full-duplex link into a
central crossbar: disjoint source/destination pairs communicate
concurrently, and contention is local — per-port FIFO queueing on the
sender's egress (tx) link and the receiver's ingress (rx) link — rather
than global.  This is the Autonet/ATM-class topology of the mid-90s
multicomputer evaluations, and it is what lets the reproduction scale
past the ring's hard O(N) wall to hundred-node runs.

One station-to-station transmission is three hops, all computed
arithmetically at ``send`` time by the one booking loop,
``_book`` (no intermediate simulator events — only the final
delivery is an event, exactly like the ring):

1. **egress** — the frame waits for the sender's tx port
   (``start_tx = max(ready, tx_free[sender])``), then occupies it for
   ``occupancy_ns(nbytes)``;
2. **crossbar** — a fixed ``switch_latency`` between the egress and
   ingress links;
3. **ingress** — the frame waits for the receiving station's rx port,
   then occupies it for the same occupancy, followed by
   ``delivery_latency`` of receiver DMA.

Broadcast is **not** free snooping: it is an explicit k-ary multicast
tree over every other station in ascending order.  The source feeds the
first ``k`` stations directly; the station at tree position ``p`` relays
to positions ``k*(p+1) .. k*(p+1)+k-1``, becoming ready to forward
``relay_cost`` after its own frame arrives.  Every relay transmission
pays real egress/ingress occupancy, so broadcast-manager algorithms are
charged genuine fan-out cost.  A unicast is the same tree with a single
position.

A broadcast frame that carries ``targets`` (an invalidation naming the
copy-set holders) still rides the *whole* tree — the NICs forward it
and every port booking delays later traffic through that port exactly
as before — but only the stations it names get a delivery event: the
interface filters the frame, the host never sees it.  Pruning the tree
to the named stations would be a different (cheaper) network model, not
an optimisation of this one.

Loss follows the contract every medium shares (:mod:`repro.net.fabric`):
the whole tree is booked before any station's drop is decided, so a drop
suppresses only that station's delivery event and moves nobody's timing.
"""

from __future__ import annotations

import numpy as np

from repro.config import ConfigError, FabricConfig
from repro.net.fabric import Fabric, FabricStats, LinkStats
from repro.net.packet import Message
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator

__all__ = ["SwitchedFabric"]


class SwitchedFabric(Fabric):
    """Crossbar-switched point-to-point network of ``nnodes`` stations."""

    name = "switched"

    def __init__(
        self,
        sim: Simulator,
        config: FabricConfig,
        nnodes: int,
        rng: np.random.Generator | None = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        if config.multicast_fanout < 1:
            raise ConfigError(
                "fabric.multicast_fanout", config.multicast_fanout, ("an integer >= 1",)
            )
        super().__init__(sim, config, nnodes, rng, obs)
        self._bandwidth_bps = config.link_bandwidth_bps
        self._frame_overhead = config.link_overhead
        self._tx_links = [LinkStats() for _ in range(nnodes)]
        self._rx_links = [LinkStats() for _ in range(nnodes)]
        self.stats = FabricStats({
            **{f"tx[{i}]": link for i, link in enumerate(self._tx_links)},
            **{f"rx[{i}]": link for i, link in enumerate(self._rx_links)},
        })
        #: Per-station port bookings: the absolute time each egress/
        #: ingress link becomes free.  FIFO queueing falls out of always
        #: booking at ``max(ready, free_at)``.
        self._tx_free = [0] * nnodes
        self._rx_free = [0] * nnodes

    # ------------------------------------------------------------------

    def _book(self, msg: Message, stations: list[int]) -> list[int]:
        """Book the k-ary tree over ``stations`` (ascending) — every tx
        and rx port on the way — and return each station's arrival time.
        Every broadcast frame rides the full tree, whoever it names; a
        unicast is a tree of one position.

        Tree position ``p < k`` is fed directly by the source; position
        ``p >= k`` is fed by the station at position ``p // k - 1``, which
        becomes ready to forward ``relay_cost`` after its own arrival.
        Parents always occupy earlier positions, so one forward pass
        computes the whole tree.  This is the fabric's only booking loop
        (a unicast passes one station), so everything loop-invariant is
        read once and the aggregate counters are added once per call.
        """
        now = self.sim.now
        nbytes = msg.nbytes
        occupancy = self._occupancy.get(nbytes)
        if occupancy is None:
            occupancy = self._occupancy[nbytes] = self.occupancy_ns(nbytes)
        cfg = self.config
        k = cfg.multicast_fanout
        relay_cost = cfg.relay_cost
        switch_latency = cfg.switch_latency
        delivery_latency = cfg.delivery_latency
        stats = self.stats
        tx_free, rx_free = self._tx_free, self._rx_free
        tx_links, rx_links = self._tx_links, self._rx_links
        # Guarded once per send, not per hop: a disabled observe is still
        # a Python call (~60 ns on the host above; bench's
        # scale_switched_n256 books 249,120 hops, ~15 ms or 0.9 % of its
        # wall_s), and tests/net/test_fabric.py gates that booking makes
        # no Python call per station.
        observe = self.obs.observe if self.obs.enabled else None
        timeline = self._timeline
        src = msg.src
        arrivals: list[int] = []
        for pos, station in enumerate(stations):
            if pos < k:
                sender, ready = src, now
            else:
                parent = pos // k - 1
                sender = stations[parent]
                ready = arrivals[parent] + relay_cost

            # Egress: wait for the sender's tx port, then occupy it.
            free = tx_free[sender]
            start_tx = ready if ready >= free else free
            tx_free[sender] = end_tx = start_tx + occupancy
            link = tx_links[sender]
            link.messages += 1
            link.busy_ns += occupancy
            backlog = start_tx - ready
            if backlog > link.peak_backlog_ns:
                link.peak_backlog_ns = backlog
            if observe is not None:
                # Egress queueing delay — the switched fabric's analogue
                # of the ring's shared-medium wait (histogrammed in ns).
                observe("fabric.queue_ns", backlog)

            # Crossbar, then ingress: wait for the station's rx port.
            at_switch = end_tx + switch_latency
            free = rx_free[station]
            start_rx = at_switch if at_switch >= free else free
            rx_free[station] = end_rx = start_rx + occupancy
            link = rx_links[station]
            link.messages += 1
            link.busy_ns += occupancy
            backlog = start_rx - at_switch
            if backlog > link.peak_backlog_ns:
                link.peak_backlog_ns = backlog

            if timeline is not None:
                # Windowed busy accounting per port; both bookings above
                # are already final, so this observes only.
                timeline.link_busy(f"tx[{sender}]", start_tx, end_tx)
                timeline.link_busy(f"rx[{station}]", start_rx, end_rx)
            arrivals.append(end_rx + delivery_latency)

        hops = len(arrivals)
        stats.bytes_sent += hops * nbytes
        if hops > k:
            stats.relays += hops - k
        return arrivals
