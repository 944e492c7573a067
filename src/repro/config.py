"""Cluster configuration for the simulated loosely-coupled multiprocessor.

All timing constants are integer **nanoseconds** of simulated time.  The
defaults are calibrated to the hardware IVY ran on: Apollo DN-series
workstations (Motorola 68020-class CPUs) on the Apollo Domain 12 Mbit/s
baseband token ring, with a user-mode remote-operation layer whose software
overhead dominates the wire time (the paper cites [28]: sending 1,000 bytes
is "not much more expensive" than sending 100).

Absolute values do not need to match the 1988 testbed (we report *shapes*,
per DESIGN.md); what matters is that the compute : page-fault : disk cost
ratios are era-plausible, because those ratios determine which benchmarks
scale and which do not.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = [
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "ConfigError",
    "CpuConfig",
    "RingConfig",
    "FabricConfig",
    "DiskConfig",
    "MemoryConfig",
    "SvmConfig",
    "SchedConfig",
    "CheckerConfig",
    "ObsConfig",
    "ClusterConfig",
]


class ConfigError(ValueError):
    """A structured configuration error.

    Raised when a config field holds a value outside its legal range
    (``ConfigError("nodes", 0, ("an integer >= 1",))`` reads "nodes must
    be an integer >= 1, got 0") or names something the system does not
    provide (:meth:`unknown`, e.g. an unknown network backend).  Carries
    the offending ``field`` and ``value``, the ``known`` legal values,
    and — when one of them is close enough to be a likely typo — an
    exact-name ``suggestion``, so drivers can render a precise message
    and tests can assert on structure instead of prose.
    """

    def __init__(
        self,
        field_name: str,
        value: object,
        known: tuple[str, ...],
        suggestion: str | None = None,
        message: str | None = None,
    ) -> None:
        self.field = field_name
        self.value = value
        self.known = known
        self.suggestion = suggestion
        super().__init__(
            message or f"{field_name} must be {' or '.join(known)}, got {value!r}"
        )

    @classmethod
    def unknown(cls, field_name: str, value: object, known) -> "ConfigError":
        """The error for a ``value`` that is none of the ``known`` names,
        suggesting the closest one when it is a likely typo."""
        import difflib

        known = tuple(sorted(known))
        close = difflib.get_close_matches(str(value), known, n=1, cutoff=0.6)
        suggestion = close[0] if close else None
        hint = f"; did you mean {suggestion!r}?" if suggestion else ""
        return cls(
            field_name, value, known, suggestion,
            f"unknown {field_name} {value!r} (known: {', '.join(known)}){hint}",
        )

#: One microsecond of simulated time, in simulation ticks (nanoseconds).
MICROSECOND = 1_000
#: One millisecond of simulated time.
MILLISECOND = 1_000_000
#: One second of simulated time.
SECOND = 1_000_000_000


@dataclass(frozen=True)
class CpuConfig:
    """Per-processor compute cost model (68020-class workstation).

    Application code charges work analytically through these knobs; the
    simulator never measures host CPU time.
    """

    #: Cost of one double-precision floating point operation (Pascal codegen
    #: on a 68020 with 68881 FPU managed roughly 0.1-0.2 MFLOPS).
    ns_per_flop: int = 6 * MICROSECOND
    #: Cost of one "simple" integer/pointer operation.
    ns_per_op: int = 500
    #: Cost of copying one byte between buffers (used for in-memory moves).
    ns_per_byte_copy: int = 120
    #: Lightweight-process context switch ("a few procedure calls", per the
    #: paper's process-model discussion).
    context_switch: int = 50 * MICROSECOND
    #: Creating / terminating a lightweight process.
    process_create: int = 300 * MICROSECOND
    #: Local half of a test-and-set based lock operation ("two 68000
    #: instructions for each locking").
    test_and_set: int = 2 * MICROSECOND


@dataclass(frozen=True)
class RingConfig:
    """The Apollo Domain 12 Mbit/s single token ring.

    The ring is a *shared medium*: exactly one frame is in flight at a time,
    so transmissions from all nodes serialise.  A message's occupancy of the
    ring is ``frame_overhead + ceil(bytes * 8e9 / bandwidth_bps)``.
    """

    bandwidth_bps: int = 12_000_000
    #: Token acquisition + hardware framing per transmission.
    frame_overhead: int = 150 * MICROSECOND
    #: Maximum payload of a single ring frame; larger messages fragment.
    max_frame_bytes: int = 2048
    #: Propagation + receiver DMA latency after the frame leaves the wire.
    delivery_latency: int = 50 * MICROSECOND
    #: Probability that a frame is lost in transit (exercises the
    #: retransmission protocol; 0.0 for deterministic experiments).
    loss_rate: float = 0.0


@dataclass(frozen=True)
class FabricConfig:
    """Transmission-medium selection and the switched backend's cost model.

    ``backend`` picks the medium every byte of cluster traffic rides:

    - ``"ring"`` — the Apollo Domain shared-medium token ring
      (:class:`RingConfig`; the paper's hardware and the default — all
      committed golden schedules assume it);
    - ``"switched"`` — a switched point-to-point interconnect
      (:class:`repro.net.fabric.switched.SwitchedFabric`): every station
      has a full-duplex link into a central crossbar, disjoint
      source/destination pairs transmit concurrently, and contention is
      per-port FIFO queueing instead of global serialisation.  Broadcast
      is not free snooping — it is realised as an explicit multicast
      tree whose relay hops pay real link occupancy.

    The switched link parameters are mid-90s-plausible (a 100 Mbit/s
    point-to-point fabric, ATM/Autonet-class): an order of magnitude
    more per-link bandwidth than the 12 Mbit/s ring and no token
    acquisition, but a per-hop switch traversal and a store-and-forward
    cost at every multicast relay.
    """

    backend: str = "ring"
    #: Per-link, per-direction bandwidth (full duplex: a station can
    #: transmit and receive simultaneously).
    link_bandwidth_bps: int = 100_000_000
    #: Framing + arbitration per transmission on one link (no shared
    #: token to wait for, so far below the ring's 150 us).
    link_overhead: int = 30 * MICROSECOND
    #: Maximum payload of a single link frame; larger messages fragment.
    max_frame_bytes: int = 2048
    #: Crossbar traversal latency between the source's egress link and
    #: the destination's ingress link.
    switch_latency: int = 10 * MICROSECOND
    #: Receiver DMA latency after the frame leaves the ingress link.
    delivery_latency: int = 20 * MICROSECOND
    #: Store-and-forward cost at each relay of a multicast tree (the
    #: host NIC re-injects the frame towards its children).
    relay_cost: int = 40 * MICROSECOND
    #: Fan-out of the multicast tree used for broadcast/multicast.
    multicast_fanout: int = 4
    #: Probability that a frame is lost at the final receiver (drawn per
    #: target, matching the ring's per-receiver loss model).
    loss_rate: float = 0.0


@dataclass(frozen=True)
class DiskConfig:
    """Per-node paging disk (Aegis demand paging backing store).

    A late-1980s Winchester disk: tens of milliseconds of positioning time,
    ~1 MB/s of media rate.  Disk traffic is what produces the paper's
    super-linear speedup (Figure 4) and Table 1.
    """

    seek: int = 24 * MILLISECOND
    bandwidth_bps: int = 8_000_000  # 1 MB/s media rate
    #: IVY had no disk I/O overlap: a paging transfer stalls the whole node
    #: ("I/O overlaps among the lightweight processes do not exist in IVY").
    #: Setting True models the paper's proposed improvement (an ablation).
    overlap_io: bool = False

    def transfer_ns(self, nbytes: int) -> int:
        """Total time to read or write ``nbytes`` in one operation."""
        return self.seek + (nbytes * 8 * SECOND) // self.bandwidth_bps


@dataclass(frozen=True)
class MemoryConfig:
    """Per-node physical memory devoted to shared-virtual-memory frames.

    ``frames`` bounds how many SVM pages a node can cache; exceeding it
    triggers Aegis-style approximate-LRU eviction to the paging disk.
    """

    #: Number of physical page frames available for SVM pages.  The default
    #: (unbounded) disables capacity effects; Figure 4 / Table 1 experiments
    #: set a finite value.
    frames: int | None = None
    #: Victim selection: "lru" (strict) or "random".  Aegis used an
    #: approximate LRU (sampled use bits); under the cyclic sweeps of the
    #: Jacobi-style benchmarks every resident page's use bit is set between
    #: samplings, so the approximation degenerates to effectively random
    #: choice — which is also what avoids strict LRU's all-or-nothing miss
    #: pathology on cyclic working sets.  The capacity experiments use
    #: "random" for that reason (see EXPERIMENTS.md).
    replacement: str = "lru"


@dataclass(frozen=True)
class SvmConfig:
    """Shared virtual memory parameters."""

    #: Page size in bytes.  The paper used 1 KB and conjectures 256 B would
    #: also work; the page-size ablation sweeps this.
    page_size: int = 1024
    #: Base virtual address of the shared portion of each address space
    #: (the low portion is private, per the paper).
    shared_base: int = 0x8000_0000
    #: Size of the shared virtual address space in bytes.
    shared_size: int = 64 * 1024 * 1024
    #: Coherence algorithm: "centralized", "fixed", "dynamic", or
    #: "broadcast" (owner location by ring broadcast — the simplest
    #: distributed manager, and the stated use of the any-reply scheme).
    algorithm: str = "dynamic"
    #: Dynamic manager refinement: after every M ownership transfers of a
    #: page, its new owner broadcasts a hint refresh so stale probOwner
    #: chains collapse (Li & Hudak's periodic-broadcast variant).  0 = off.
    dynamic_broadcast_period: int = 0
    #: Write policy: "invalidate" (IVY: read copies are invalidated before
    #: a write) or "update" (extension: the owner multicasts fresh page
    #: contents to the copy set on every write — the other classic DSM
    #: design point, good for producer/consumer sharing, terrible for
    #: write-heavy pages with stale readers; see the ablation).
    write_policy: str = "invalidate"
    #: Node hosting the centralized manager (and initial owner of all pages).
    manager_node: int = 0
    #: CPU cost of the page-fault trap + handler entry/exit.
    fault_handler_cost: int = 250 * MICROSECOND


@dataclass(frozen=True)
class SchedConfig:
    """Process scheduling and passive load balancing."""

    #: Null-process timeout: idle nodes run the load balancer and the
    #: retransmission check every half second (per the paper).
    null_timeout: int = 500 * MILLISECOND
    #: Ask for work when the local process count drops below this.
    lower_threshold: int = 1
    #: Grant migration requests only while the local count exceeds this.
    upper_threshold: int = 2
    #: Whether the passive load balancer is active at all.
    load_balancing: bool = False
    #: Use ready-process count as the sole criterion (the policy the paper
    #: reports "will not work well"; kept for the ablation).
    ready_count_only: bool = False
    #: Default per-process stack reservation in the shared space, bytes.
    stack_bytes: int = 8 * 1024
    #: Memory allocator: "central" (the paper's one-level first-fit with
    #: centralized control) or "twolevel" (the improvement the paper
    #: proposes but had not implemented; built here as an extension).
    allocator: str = "central"
    #: Two-level allocator: pages per chunk fetched from the central
    #: allocator by a node-local allocator.
    alloc_chunk_pages: int = 16


@dataclass(frozen=True)
class CheckerConfig:
    """Fine-grained control over the online correctness checkers.

    ``ClusterConfig.checker`` is ``False`` (off), ``True`` (on, these
    defaults) or one of these (on, with these settings).
    """

    #: Labels of *declared* benign data races.  An application declares a
    #: race-by-design region with ``ctx.declare_benign_race(label, addr,
    #: nbytes)`` (e.g. TSP's optimistic best-bound read, label
    #: ``"tsp.best-bound"``); reports whose racing word falls inside a
    #: declared region with its label listed here are suppressed —
    #: recorded on ``RaceDetector.suppressed`` and counted under the
    #: ``race.suppressed`` counter, but kept out of ``races`` and the
    #: ``violation.race`` namespace.  Declarations whose labels are not
    #: listed still report: the allowlist is in the *configuration*, so
    #: an application cannot silence itself.
    known_races: tuple[str, ...] = ()


@dataclass(frozen=True)
class ObsConfig:
    """What the observability layer records.

    ``ClusterConfig.obs`` is ``False`` (off), ``True`` (on, these
    defaults: whole-run aggregates only) or one of these (on, with these
    settings); the cluster builds its :class:`repro.obs.Observability`
    from it.  Every option is pure observation: the simulated schedule
    is bit-for-bit identical whatever is set here.
    """

    #: Width of one timeline window in simulated ns; 0 disables the
    #: windowed timeline (whole-run aggregates only).  With a timeline,
    #: instruments, closed-span time, per-link busy-ns, and the
    #: profiler's attribution all become per-window series, the input
    #: to ``repro.obs.slo`` evaluation.
    timeline_window_ns: int = 0
    #: Head-based span sampling: keep ~1 in N root-span trees, decided
    #: by a pure hash of the span id (no RNG, no wall clock; identical
    #: runs keep identical sets).  1 keeps everything.  Dropped spans
    #: still feed the profiler and timeline, so attribution stays
    #: complete at any rate.
    sample_every: int = 1
    #: Histogram backend for instruments: "exact" keeps every sample,
    #: "logbucket" keeps O(log range) counters with a bounded relative
    #: error — the right choice at 64+ nodes.
    hist_backend: str = "exact"


@dataclass(frozen=True)
class ClusterConfig:
    """Complete description of one simulated cluster."""

    nodes: int = 4
    seed: int = 1988
    #: Enable the online correctness checkers (repro.analysis): the
    #: coherence oracle shadows every protocol transition and the
    #: vector-clock race detector instruments application accesses.
    #: Checking is pure observation — it never yields simulation effects,
    #: so enabling it cannot change simulated times or event counts; a
    #: detected violation raises ``InvariantViolation``.  Pass a
    #: :class:`CheckerConfig` instead of ``True`` to tune the checkers
    #: (e.g. allowlist known-benign application races).
    checker: bool | CheckerConfig = False
    #: Enable the observability layer (repro.obs): causal span tracing
    #: through faults/RPCs/invalidations, latency histograms, and the
    #: simulated-time profiler.  Like the checker it is pure observation
    #: — no effects, no RNG — so enabling it never changes simulated
    #: times, event counts, or golden schedules.  Pass an
    #: :class:`ObsConfig` instead of ``True`` to enable the windowed
    #: timeline, span sampling, or the bounded-memory histogram backend.
    #: This is the only switch: the run's handle is ``Ivy.obs`` (or
    #: ``RunResult.obs`` from ``repro.exps.parallel``), queryable after
    #: the run.
    obs: bool | ObsConfig = False
    cpu: CpuConfig = field(default_factory=CpuConfig)
    ring: RingConfig = field(default_factory=RingConfig)
    #: Network-medium selection (``fabric.backend``) and the switched
    #: backend's link cost model.  The default rides the token ring
    #: above, keeping every committed golden schedule bit-for-bit.
    fabric: FabricConfig = field(default_factory=FabricConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    svm: SvmConfig = field(default_factory=SvmConfig)
    sched: SchedConfig = field(default_factory=SchedConfig)
    #: Per-message transport software overhead at each endpoint (user-mode
    #: protocol processing; dominates small-message cost, per [28]).
    transport_cpu: int = 500 * MICROSECOND
    #: CPU cost of dispatching one incoming remote-operation request.
    server_dispatch_cost: int = 100 * MICROSECOND
    #: Request retransmission timeout (the paper's null process re-checks
    #: outgoing channels every half second).
    retransmit_timeout: int = 500 * MILLISECOND
    #: Upper bound on retransmissions before the transport declares the
    #: peer dead and raises; generous because the sim has no real crashes.
    max_retransmits: int = 64

    def replace(self, **kw) -> "ClusterConfig":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kw)

    def with_svm(self, **kw) -> "ClusterConfig":
        """Return a copy with SVM sub-fields replaced."""
        return dataclasses.replace(self, svm=dataclasses.replace(self.svm, **kw))

    def with_sched(self, **kw) -> "ClusterConfig":
        """Return a copy with scheduler sub-fields replaced."""
        return dataclasses.replace(self, sched=dataclasses.replace(self.sched, **kw))

    def with_memory(self, **kw) -> "ClusterConfig":
        """Return a copy with memory sub-fields replaced."""
        return dataclasses.replace(self, memory=dataclasses.replace(self.memory, **kw))

    def with_cpu(self, **kw) -> "ClusterConfig":
        """Return a copy with CPU sub-fields replaced."""
        return dataclasses.replace(self, cpu=dataclasses.replace(self.cpu, **kw))

    def with_ring(self, **kw) -> "ClusterConfig":
        """Return a copy with ring sub-fields replaced."""
        return dataclasses.replace(self, ring=dataclasses.replace(self.ring, **kw))

    def with_fabric(self, **kw) -> "ClusterConfig":
        """Return a copy with fabric sub-fields replaced (e.g.
        ``with_fabric(backend="switched")``)."""
        return dataclasses.replace(
            self, fabric=dataclasses.replace(self.fabric, **kw)
        )

    def with_disk(self, **kw) -> "ClusterConfig":
        """Return a copy with disk sub-fields replaced."""
        return dataclasses.replace(self, disk=dataclasses.replace(self.disk, **kw))
