"""Pluggable network fabric: the transmission-medium abstraction.

Everything above the medium — the reliable transport, the remote-
operation layer, the coherence protocols — speaks to the network
through the :class:`Fabric` interface: ``attach`` a delivery callback
per station, ``send`` a :class:`repro.net.packet.Message`, read
:class:`FabricStats` (flat counters and per-link :class:`LinkStats`,
one shape on every backend).  ``Fabric.send`` is the one send path,
one call per frame: it checks addressing, counts the frame, lists the
stations it passes, asks the backend's ``_book`` for their arrival
times and drops or delivers per station, scheduling each receiver
callback itself.  What the medium *is* is a backend choice
(``ClusterConfig.fabric.backend``, one of :data:`FABRIC_BACKENDS`):

- ``"ring"`` — :class:`repro.net.fabric.ring.TokenRing`, the Apollo
  Domain 12 Mbit/s shared medium of the paper.  One frame in flight at
  a time; broadcast is free snooping.  The default, and the backend
  every committed golden schedule assumes.
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

from typing import TYPE_CHECKING, Callable, Iterable

from repro.config import ClusterConfig, ConfigError, FabricConfig, RingConfig
from repro.net.packet import BROADCAST, Message, delivery_label
from repro.net.pool import MessagePool, PagePool
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

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


_FLAT_COUNTERS = ("messages", "broadcasts", "bytes_sent", "busy_ns", "lost_frames", "relays")


class FabricStats:
    """One medium's statistics: flat counters plus its per-link map.

    The links are built once, by the backend, and booked in place: the
    shared ring is a single link named ``"medium"``, the switched fabric
    one egress (``tx[i]``) and one ingress (``rx[i]``) link per station.
    ``busy_ns`` is their summed occupancy, computed when read (on the
    switched fabric it can exceed wall-clock time — that is the
    concurrency the crossbar buys).  ``relays`` counts multicast-tree
    re-transmissions (0 on the ring, where broadcast is snooping).
    """

    __slots__ = ("messages", "broadcasts", "bytes_sent", "lost_frames", "relays", "_links")

    def __init__(self, links: dict[str, LinkStats]) -> None:
        self.messages = 0
        self.broadcasts = 0
        self.bytes_sent = 0
        self.lost_frames = 0
        self.relays = 0
        self._links = links

    @property
    def busy_ns(self) -> int:
        return sum(link.busy_ns for link in self._links.values())

    def snapshot(self) -> dict[str, int]:
        """Flat counter dict; the same keys on every backend."""
        return {name: getattr(self, name) for name in _FLAT_COUNTERS}

    def links(self) -> dict[str, LinkStats]:
        """Per-link utilisation/queueing map, keyed by link name (the
        live objects the backend books)."""
        return dict(self._links)


class Fabric:
    """Base class for transmission media connecting ``nnodes`` stations.

    Subclasses implement :meth:`_book` — book the medium for the
    stations a frame passes and return their arrival times — and set
    :attr:`stats` and the two link parameters :meth:`occupancy_ns`
    reads; station attachment and the one :meth:`send` body (address
    validation, counting, the per-station drop/deliver loop that
    schedules each receiver directly) are shared here so the transport
    — and the schedule explorer — see identical behaviour on every
    backend.
    """

    #: Backend name (the ``ClusterConfig.fabric.backend`` key).
    name = "?"
    #: One link's speed and per-fragment overhead, set by the backend
    #: from its config section.
    _bandwidth_bps: int
    _frame_overhead: int

    def __init__(
        self,
        sim: Simulator,
        config: RingConfig | FabricConfig,
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
        #: nbytes -> :meth:`occupancy_ns`, filled by the backend's
        #: ``_book`` the first time it sees a size: a run sends a handful
        #: of distinct sizes, so booking a frame makes no formula call.
        self._occupancy: dict[int, int] = {}
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
        time).  Each station the frame reaches gets its receiver
        scheduled directly, as the module docstring's contract says."""
        dst = msg.dst
        named = msg.targets
        if named is not None or (
            dst != BROADCAST and (dst == msg.src or not 0 <= dst < self.nnodes)
        ):
            self._check_addressing(msg)
        stats = self.stats
        stats.messages += 1
        if dst == BROADCAST:
            stats.broadcasts += 1
            # Every broadcast frame passes every other station, whoever
            # it names: only the named ones are woken.
            stations = [n for n in range(self.nnodes) if n != msg.src]
        else:
            stations = [dst]
        arrivals = self._book(msg, stations)
        drop_policy = self.drop_policy
        lossy = self._lossy
        receivers = self._receivers
        now = self.sim.now
        schedule = self.sim.schedule_nocancel
        for station, arrival in zip(stations, arrivals):
            if (drop_policy is not None and drop_policy(msg, station)) or (
                lossy and self._drop()
            ):
                stats.lost_frames += 1
            elif named is None or station in named:
                receiver = receivers.get(station)
                if receiver is None:
                    raise RuntimeError(
                        f"{msg.describe()}: no receiver attached at station {station}"
                    )
                schedule(
                    arrival - now, receiver, msg, label=(delivery_label, station, msg)
                )

    def occupancy_ns(self, nbytes: int) -> int:
        """Medium time one message of ``nbytes`` occupies one link for:
        the backend's per-fragment overhead plus wire time at its
        bandwidth."""
        fragments = max(1, -(-nbytes // self.config.max_frame_bytes))  # ceil div
        wire = (nbytes * 8 * 1_000_000_000) // self._bandwidth_bps
        return fragments * self._frame_overhead + wire

    def _book(self, msg: Message, stations: list[int]) -> Iterable[int]:
        """Book the medium for ``msg`` passing ``stations`` (ascending),
        add its ``bytes_sent``, and return each station's absolute
        arrival time."""
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

    def _drop(self) -> bool:
        return bool(self.rng.random() < self.config.loss_rate)


# The backends subclass Fabric, so they are imported once it exists.
from repro.net.fabric.ring import TokenRing  # noqa: E402
from repro.net.fabric.switched import SwitchedFabric  # noqa: E402

#: Backend name -> (class, the ``ClusterConfig`` section holding its
#: parameters).  The one list of backends: ``make_fabric`` dispatches on
#: it and every command line reads its names from it, in this order.
#: The section also names the loss stream; the ring's predates the
#: fabric abstraction, and keeping it preserves every committed golden
#: schedule bit-for-bit.
FABRIC_BACKENDS: dict[str, tuple[type[Fabric], str]] = {
    "ring": (TokenRing, "ring"),
    "switched": (SwitchedFabric, "fabric"),
}


def make_fabric(
    sim: Simulator,
    config: ClusterConfig,
    rngs: "RngStreams",
    obs: Observability = NULL_OBS,
) -> Fabric:
    """Instantiate the configured network backend for one cluster.

    An unknown ``config.fabric.backend`` raises a structured
    :class:`repro.config.ConfigError` carrying the known names and, for
    near-misses, the exact name the caller probably meant.  A lossless
    medium never draws, so it builds no stream.
    """
    backend = config.fabric.backend
    if backend not in FABRIC_BACKENDS:
        raise ConfigError.unknown("fabric.backend", backend, FABRIC_BACKENDS)
    cls, section = FABRIC_BACKENDS[backend]
    medium: RingConfig | FabricConfig = getattr(config, section)
    rng = rngs.stream(section) if medium.loss_rate > 0.0 else None
    return cls(sim, medium, config.nodes, rng, obs=obs)
