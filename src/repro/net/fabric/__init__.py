"""Pluggable network fabric: the transmission-medium abstraction.

Everything above the medium — the reliable transport, the remote-
operation layer, the coherence protocols — speaks to the network
through the :class:`Fabric` interface: ``attach`` a delivery callback
per station, ``send`` a :class:`repro.net.packet.Message`, read
aggregate :class:`FabricStats`.  What the medium *is* is a backend
choice (``ClusterConfig.fabric.backend``):

- ``"ring"`` — :class:`repro.net.ring.TokenRing`, the Apollo Domain
  12 Mbit/s shared medium of the paper.  One frame in flight at a time;
  broadcast is free snooping.  The default, and the backend every
  committed golden schedule assumes.
- ``"switched"`` — :class:`repro.net.fabric.switched.SwitchedFabric`,
  a switched point-to-point interconnect: per-station full-duplex
  links into a crossbar, concurrent transmission on disjoint links,
  per-port FIFO queueing, and broadcast as an explicit multicast tree.

The contract every backend must honour (and the transport relies on):

- delivery is by simulator events only — ``send`` returns immediately
  and never calls a receiver synchronously;
- every delivery event is scheduled with the unevaluated label
  ``(delivery_label, target, msg)``; the kernel — not the fabric —
  renders it with :func:`repro.net.packet.delivery_label`, at schedule
  time and only when a :class:`~repro.sim.kernel.Scheduler` is
  installed, so the schedule explorer can order same-tick deliveries
  and an uncontrolled run never formats one (the label grammar is
  backend-agnostic: ``parse_delivery_label`` works identically on both
  fabrics);
- a frame's medium cost is paid for every station it passes (the
  ring's one booking, every port of the switched multicast tree), but
  only the stations it *names* are woken: a broadcast frame carrying
  ``targets`` schedules a delivery event for those stations alone, so a
  receiver callback is only ever handed frames meant for it (the
  interface filters, not the host);
- the :attr:`Fabric.drop_policy` hook is consulted once per
  ``(msg, station)`` pair for *every* station the frame passes, named
  or not, in ascending station order, *before* any random loss draw
  (drawn per station likewise) — the explorer's delay-injection
  strategy numbers attempts through it, and a lossy run's random
  stream does not depend on who was addressed;
- a frame addressed out of range, or to its own sender (as ``dst`` or
  in ``targets``), is a ``ValueError`` at ``send``;
- all arithmetic is integer nanoseconds: a fabric is a pure function
  of its inputs, never of the host (the determinism lint covers this
  package).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Protocol

from repro.net.packet import BROADCAST, Message, delivery_label
from repro.net.pool import MessagePool, PagePool
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.config import ClusterConfig, FabricConfig, RingConfig
    from repro.sim.rng import RngStreams

__all__ = [
    "FABRIC_BACKENDS",
    "Fabric",
    "FabricStats",
    "LinkStats",
    "make_fabric",
]


class LinkStats:
    """Per-link medium accounting: one row of a fabric's utilisation map.

    ``busy_ns`` is how long the link carried bits, ``messages`` how many
    transmissions it carried, and ``peak_backlog_ns`` the furthest ahead
    of the sender's "now" the link was ever booked — the FIFO queueing
    depth expressed in time (0 on an uncontended link).
    """

    __slots__ = ("busy_ns", "messages", "peak_backlog_ns")

    def __init__(self) -> None:
        self.busy_ns = 0
        self.messages = 0
        self.peak_backlog_ns = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<LinkStats busy={self.busy_ns}ns msgs={self.messages} "
            f"backlog<= {self.peak_backlog_ns}ns>"
        )


class FabricStats(Protocol):
    """What every medium's statistics object must expose.

    The flat counters keep the historical ``RingStats`` names so
    existing consumers (ablation tables, ``RunResult.fabric_stats``) work
    on any backend; :meth:`links` is the generalisation — the shared
    ring is a single link named ``"medium"``, the switched fabric one
    egress (``tx[i]``) and one ingress (``rx[i]``) link per station.
    """

    messages: int
    broadcasts: int
    bytes_sent: int
    lost_frames: int

    def snapshot(self) -> dict[str, int]:
        """Flat counter dict (stable keys per backend)."""
        ...  # pragma: no cover - protocol

    def links(self) -> dict[str, LinkStats]:
        """Per-link utilisation/queueing map, keyed by link name."""
        ...  # pragma: no cover - protocol


class Fabric:
    """Base class for transmission media connecting ``nnodes`` stations.

    Subclasses implement :meth:`send` — book the medium, then hand the
    stations the frame passes to :meth:`_fan_out` — and set
    :attr:`stats`; station attachment, address validation, the
    per-station drop/deliver loop and delivery dispatch are shared here
    so the transport — and the schedule explorer — see identical
    behaviour on every backend.
    """

    #: Backend name (the ``ClusterConfig.fabric.backend`` key).
    name = "?"

    def __init__(
        self,
        sim: Simulator,
        config: "RingConfig | FabricConfig",
        nnodes: int,
        rng: "np.random.Generator | None" = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        if nnodes < 1:
            raise ValueError(f"{type(self).__name__} needs at least one station")
        self.sim = sim
        self.config = config
        self.nnodes = nnodes
        self.rng = rng
        #: Loss is configured once; a lossless medium skips the
        #: per-station random draw entirely.
        self._lossy = config.loss_rate > 0.0 and rng is not None
        self.obs = obs
        #: Windowed per-link busy accounting (None unless a timeline is
        #: configured); backends report each booked transmission to it.
        #: Purely observational: the booking times are computed first,
        #: identically, whether or not anyone records them.
        self._timeline = obs.timeline
        self.stats: FabricStats
        #: Bench-only: the frozen ``bench/`` package sends pooled
        #: envelopes through a fabric and reads these counters; nothing
        #: in the simulator acquires from it.
        self.pool = MessagePool()
        #: Every node's page frames and the page images the coherence
        #: servers ship (repro.net.pool).
        self.pages = PagePool()
        self._receivers: dict[int, Callable[[Message], None]] = {}
        #: Deterministic drop hook for the schedule explorer's delay-
        #: injection strategy: consulted once per (msg, station) for
        #: every station the frame passes, *before* any random loss
        #: draw; returning True drops the frame there (the transport's
        #: retransmission protocol recovers it, creating the delayed/
        #: reordered delivery being explored).
        self.drop_policy: Callable[[Message, int], bool] | None = None

    # ------------------------------------------------------------------

    def attach(self, node_id: int, receiver: Callable[[Message], None]) -> None:
        """Register the delivery callback for a station."""
        if not 0 <= node_id < self.nnodes:
            raise ValueError(f"station {node_id} out of range")
        if node_id in self._receivers:
            raise ValueError(f"station {node_id} already attached")
        self._receivers[node_id] = receiver

    def close(self) -> None:
        """Detach every station (receivers refer back to this fabric)."""
        self._receivers.clear()

    def send(self, msg: Message) -> None:
        """Queue ``msg`` for transmission; delivery is scheduled events.

        Returns immediately (the sending *software* cost is charged by
        the transport layer, not here — the medium only models wire
        time)."""
        raise NotImplementedError

    def occupancy_ns(self, nbytes: int) -> int:
        """Medium time one message of ``nbytes`` occupies one link for."""
        raise NotImplementedError

    # ------------------------------------------------------------------

    def _check_addressing(self, msg: Message) -> None:
        """Reject a frame addressed out of range or to its own sender —
        as ``dst`` or anywhere in ``targets`` — before anything is
        booked: such a frame would occupy the medium and wake nobody,
        and its sender would learn of the bug only after exhausting its
        retransmissions."""
        stations = msg.targets
        if stations is None:
            if msg.dst == BROADCAST:
                return
            stations = (msg.dst,)
        for station in stations:
            if station == msg.src or not 0 <= station < self.nnodes:
                raise ValueError(
                    f"{msg.describe()}: cannot address station {station} "
                    f"(stations are 0..{self.nnodes - 1}, sender excluded)"
                )

    def _fan_out(
        self, msg: Message, stations: Iterable[int], arrivals: Iterable[int]
    ) -> None:
        """The one per-station drop/deliver loop, shared by every medium.

        ``stations`` are the stations ``msg`` passes, ascending, each
        paired with its absolute arrival time; the medium has already
        been booked for all of them.  Every station gets its drop
        decision — explorer ``drop_policy`` first, then the random loss
        draw — so attempt numbering and the loss stream are independent
        of addressing; only a station the frame names (all of them, for
        a frame without ``targets``) gets a delivery event, labelled for
        the schedule explorer."""
        drop_policy = self.drop_policy
        lossy = self._lossy
        named = msg.targets
        now = self.sim.now
        schedule = self.sim.schedule_nocancel
        deliver = self._deliver
        for station, arrival in zip(stations, arrivals):
            forced = drop_policy is not None and drop_policy(msg, station)
            if forced or (lossy and self._drop()):
                self.stats.lost_frames += 1
            elif named is None or station in named:
                schedule(
                    arrival - now, deliver, station, msg,
                    label=(delivery_label, station, msg),
                )

    def _drop(self) -> bool:
        return bool(self.rng.random() < self.config.loss_rate)

    def _deliver(self, target: int, msg: Message) -> None:
        receiver = self._receivers.get(target)
        if receiver is None:
            raise RuntimeError(f"no receiver attached at station {target}")
        receiver(msg)


#: Known backend names -> human summary (the registry ``make_fabric``
#: dispatches on; the summaries feed error messages and docs).
FABRIC_BACKENDS: dict[str, str] = {
    "ring": "shared-medium token ring (the paper's Apollo Domain hardware)",
    "switched": "switched point-to-point crossbar with multicast-tree broadcast",
}


def make_fabric(
    sim: Simulator,
    config: "ClusterConfig",
    rngs: "RngStreams",
    obs: Observability = NULL_OBS,
) -> Fabric:
    """Instantiate the configured network backend for one cluster.

    An unknown ``config.fabric.backend`` raises a structured
    :class:`repro.config.ConfigError` carrying the known names and, for
    near-misses, the exact name the caller probably meant.
    """
    backend = config.fabric.backend
    if backend == "ring":
        from repro.net.ring import TokenRing

        # A lossless medium never draws, so it builds no stream.  The
        # ring's stream name predates the fabric abstraction; keeping it
        # preserves every committed golden schedule bit-for-bit.
        rng: "np.random.Generator | None" = (
            rngs.stream("ring") if config.ring.loss_rate > 0.0 else None
        )
        return TokenRing(sim, config.ring, config.nodes, rng, obs=obs)
    if backend == "switched":
        from repro.net.fabric.switched import SwitchedFabric

        rng = rngs.stream("fabric") if config.fabric.loss_rate > 0.0 else None
        return SwitchedFabric(sim, config.fabric, config.nodes, rng, obs=obs)

    from repro.config import ConfigError

    raise ConfigError.unknown("fabric.backend", backend, FABRIC_BACKENDS)
