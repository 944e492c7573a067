"""The IVY client interface: initialization, process management, memory
allocation — the top three modules of the paper's Figure 2.

:class:`Ivy` boots the full per-node stack (schedulers, migration,
load balancing, allocation) on top of a :class:`repro.api.cluster.Cluster`
and runs *parallel programs*: generator functions of the form::

    def main(ctx, *args):
        a = yield from ctx.malloc(nbytes)
        yield from ctx.write_array(a, ...)
        pid = yield from ctx.spawn(worker, arg, on=2)
        yield from ctx.ec_wait(done_ec, nworkers)
        return result

Each process receives an :class:`IvyProcessContext` — its window onto
the shared virtual memory, synchronisation, allocation and process
primitives.  The context always resolves against the process's *current*
node, so after a migration the same code transparently runs against the
destination's page tables, exactly the transparency the paper claims
for process migration.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, NamedTuple

from repro.alloc.firstfit import CentralAllocator
from repro.alloc.twolevel import TwoLevelAllocator
from repro.api.cluster import Cluster, NodeContext
from repro.config import ClusterConfig, ConfigError
from repro.net.packet import request_size
from repro.proc.loadbalance import LoadBalancer
from repro.proc.migration import MigrationService
from repro.proc.pcb import PCB, Pid
from repro.proc.scheduler import NodeScheduler
from repro.sim.process import Compute, Effect, Suspend, TaskFailure, YieldCpu
from repro.sync import barrier as _barrier
from repro.sync import eventcount as _ec
from repro.sync import lock as _lock
from repro.sync import sequencer as _seq

__all__ = ["Ivy", "IvyProcessContext"]

OP_SPAWN = "proc.spawn"


class Ivy:
    """A booted IVY system on a simulated cluster."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.cluster = Cluster(config)
        #: Observability bundle (live when ``config.obs`` is set; the
        #: shared NULL_OBS otherwise).
        self.obs = self.cluster.obs
        #: Vector-clock race detector (repro.analysis), enabled together
        #: with the coherence oracle by ``ClusterConfig.checker``.
        self.races = None
        if config.checker:
            from repro.analysis.racedetect import RaceDetector

            self.races = RaceDetector(self.cluster)
        self.schedulers: list[NodeScheduler] = []
        self.migrations: list[MigrationService] = []
        self.balancers: list[LoadBalancer] = []
        manager = config.svm.manager_node
        heap_base = config.svm.shared_base
        heap_size = config.svm.shared_size
        self.allocators: list[Any] = []
        self._runtime = _Runtime(
            self.cluster.nodes, self.races, self.allocators, self.migrations
        )
        for node in self.cluster.nodes:
            sched = NodeScheduler(
                self.cluster.sim, node.node_id, config, node.counters,
                obs=self.cluster.obs,
            )
            node.sched = sched
            node.transport.load_provider = sched.load_byte
            sched.load_hints = node.transport.load_hints
            self.schedulers.append(sched)
            migration = MigrationService(node, sched)
            self.migrations.append(migration)
            self.balancers.append(LoadBalancer(node, sched, migration))
            central = CentralAllocator(node, manager, heap_base, heap_size)
            if config.sched.allocator == "twolevel":
                self.allocators.append(TwoLevelAllocator(node, central))
            elif config.sched.allocator == "central":
                self.allocators.append(central)
            else:
                raise ConfigError.unknown(
                    "sched.allocator", config.sched.allocator, ("central", "twolevel")
                )
            node.remote.register(OP_SPAWN, _spawn_server(self._runtime, node))

    # ------------------------------------------------------------------

    def node(self, node_id: int) -> NodeContext:
        return self.cluster.node(node_id)

    def run(self, main: Callable[..., Generator], *args: Any, on: int = 0) -> Any:
        """Run ``main(ctx, *args)`` as the initial process; returns its
        result once the whole program (simulation) quiesces."""
        balancers = self.balancers
        ctx = IvyProcessContext(self._runtime)
        sched = self.schedulers[on]
        pcb = ctx.pcb = sched.spawn(main(ctx, *args), name="main", migratable=False)
        if self.config.sched.load_balancing:
            for balancer in balancers:
                balancer.start()
            pcb.task.on_done(lambda _t: [b.stop() for b in balancers])
        self.cluster.run()
        if pcb.task.error is not None:
            raise TaskFailure(f"main process failed") from pcb.task.error
        if self.cluster.oracle is not None:
            # The simulation drained: every invariant must now hold at
            # full strength (no in-flight-fault gating).
            self.cluster.oracle.check_quiescent()
        return pcb.task.result

    @property
    def time_ns(self) -> int:
        return self.cluster.sim.now


class _Runtime(NamedTuple):
    """What a process reaches of its IVY system, per node where a list.

    Never the :class:`Ivy` or the :class:`Cluster`: the spawn server that
    creates a process for a remote parent is an upcall the nodes hold, so
    what it hands a new process must not point back at either root (see
    :meth:`Cluster.close`)."""

    nodes: list[NodeContext]
    races: Any
    allocators: list[Any]
    migrations: list[MigrationService]


# ----------------------------------------------------------------------
# process creation (manual scheduling: "tell where a process goes")


def _spawn_server(runtime: _Runtime, node: NodeContext):
    def serve_spawn(origin: int, payload: tuple) -> Generator:
        pid = yield from _spawn_here(runtime, node, payload)
        return (pid.node, pid.serial)

    return serve_spawn


def _spawn_here(
    runtime: _Runtime, node: NodeContext, spec: tuple
) -> Generator[Effect, Any, Pid]:
    """Create a process on ``node`` from ``spec`` = (fn, args, name,
    migratable, stack address, stack pages, the parent's race clock)."""
    fn, args, name, migratable, stack_addr, stack_pages, parent_clock = spec
    yield Compute(node.config.cpu.process_create)
    if stack_pages:
        # Claim the first stack page here so the dispatcher never
        # page-faults on it (see Figure 3 of the paper).
        yield from node.protocol.ensure_write(stack_pages[0])
    ctx = IvyProcessContext(runtime)
    pcb = ctx.pcb = node.sched.spawn(
        fn(ctx, *args), name=name, migratable=migratable,
        stack_addr=stack_addr, stack_pages=stack_pages,
    )
    races = runtime.races
    if races is not None and parent_clock is not None:
        # The edge must be in place before the child's first access;
        # a remotely spawned child can run before the spawn reply
        # reaches the parent, which is why the clock rides in the
        # spawn payload instead of being registered on return.
        races.on_spawn(pcb.pid, parent_clock)
    return pcb.pid


class IvyProcessContext:
    """A process's handle on the IVY system (follows the process around)."""

    def __init__(self, runtime: _Runtime) -> None:
        self._runtime = runtime
        self._nodes = runtime.nodes
        self._races = runtime.races
        #: Set by the spawner once the process exists: its generator is
        #: built with this context before the scheduler makes its PCB.
        self.pcb: PCB = None  # type: ignore[assignment]
        self._cpu = self._nodes[0].config.cpu
        #: Per-node TrackedMemory proxies (race detection only).
        self._tracked: dict[int, Any] = {}

    # ------------------------------------------------------------------
    # location-transparent accessors

    @property
    def node_id(self) -> int:
        """The processor this process currently runs on."""
        return self.pcb.node

    @property
    def node(self) -> NodeContext:
        return self._nodes[self.pcb.node]

    @property
    def mem(self):
        inner = self.node.mem
        races = self._races
        if races is None:
            return inner
        node_id = self.pcb.node
        proxy = self._tracked.get(node_id)
        if proxy is None:
            from repro.analysis.racedetect import TrackedMemory

            proxy = TrackedMemory(inner, races, self.pcb.pid, node_id)
            self._tracked[node_id] = proxy
        return proxy

    @property
    def racedetect(self):
        """The cluster's race detector, or None when checking is off."""
        return self._races

    def declare_benign_race(self, label: str, addr: int, nbytes: int) -> None:
        """Declare ``[addr, addr+nbytes)`` as racy by design under
        ``label`` (no-op when checking is off).  Reports there are
        suppressed only when the run's ``CheckerConfig.known_races``
        also lists the label — the program locates, the config
        authorises."""
        if self._races is not None:
            self._races.declare_benign_race(label, addr, nbytes)

    @property
    def nnodes(self) -> int:
        return len(self._nodes)

    def self_pid(self) -> Pid:
        return self.pcb.pid

    # ------------------------------------------------------------------
    # computation cost model

    def compute(self, ns: int) -> Effect:
        """``yield ctx.compute(ns)`` — hold the CPU for ns."""
        return Compute(int(ns))

    def flops(self, n: float) -> Effect:
        """Charge ``n`` floating-point operations."""
        return Compute(int(n * self._cpu.ns_per_flop))

    def ops(self, n: float) -> Effect:
        """Charge ``n`` simple integer/pointer operations."""
        return Compute(int(n * self._cpu.ns_per_op))

    def yield_cpu(self) -> Effect:
        return YieldCpu()

    # ------------------------------------------------------------------
    # shared memory (delegates to the current node)

    def read_bytes(self, addr, n):
        return self.mem.read_bytes(addr, n)

    def write_bytes(self, addr, data):
        return self.mem.write_bytes(addr, data)

    def read_array(self, addr, dtype, count):
        return self.mem.read_array(addr, dtype, count)

    def write_array(self, addr, values):
        return self.mem.write_array(addr, values)

    def read_f64(self, addr):
        return self.mem.read_f64(addr)

    def write_f64(self, addr, value):
        return self.mem.write_f64(addr, value)

    def read_i64(self, addr):
        return self.mem.read_i64(addr)

    def write_i64(self, addr, value):
        return self.mem.write_i64(addr, value)

    def atomic_update(self, addr, nbytes, fn):
        return self.mem.atomic_update(addr, nbytes, fn)

    # ------------------------------------------------------------------
    # memory allocation

    def malloc(self, nbytes: int) -> Generator[Effect, Any, int]:
        addr = yield from self._runtime.allocators[self.pcb.node].allocate(nbytes)
        return addr

    def free(self, addr: int) -> Generator[Effect, Any, None]:
        yield from self._runtime.allocators[self.pcb.node].release(addr)

    # ------------------------------------------------------------------
    # process management

    def spawn(
        self,
        fn: Callable[..., Generator],
        *args: Any,
        on: int | None = None,
        migratable: bool = True,
        name: str = "",
    ) -> Generator[Effect, Any, Pid]:
        """Create a lightweight process running ``fn(ctx, *args)``.

        ``on`` pins the birth processor (manual scheduling); the default
        is the caller's current processor (system scheduling then relies
        on the passive load balancer to spread work).
        """
        name = name or f"{getattr(fn, '__name__', 'proc')}"
        node = self.node
        stack_bytes = node.config.sched.stack_bytes
        stack_addr = yield from self.malloc(stack_bytes)
        stack_pages = tuple(node.mem.layout.pages_spanned(stack_addr, stack_bytes))
        target = self.pcb.node if on is None else on
        races = self._races
        parent_clock = races.fork(self.pcb.pid) if races is not None else None
        spec = (fn, args, name, migratable, stack_addr, stack_pages, parent_clock)
        if target == self.pcb.node:
            pid = yield from _spawn_here(self._runtime, node, spec)
            return pid
        raw = yield from node.remote.request(
            target, OP_SPAWN, spec, nbytes=request_size(64 + 16 * len(args)),
        )
        return Pid(raw[0], raw[1])

    def set_migratable(self, flag: bool) -> None:
        """Toggle the PCB's migratable attribute at run time."""
        self.pcb.migratable = bool(flag)

    def migrate_to(self, dst: int) -> Generator[Effect, Any, None]:
        """Manually migrate the calling process to processor ``dst``."""
        if dst == self.pcb.node:
            return
        migration = self._runtime.migrations[self.pcb.node]
        pcb = self.pcb

        def shipper() -> Generator:
            ok = yield from migration.migrate_out(pcb, dst)
            if not ok:  # pragma: no cover - destination never refuses
                migration.sched.make_ready(pcb)

        self.node.driver.spawn(shipper(), f"ship-{pcb.pid}")
        # Park; the destination's adopt() makes us ready over there.
        yield Suspend()

    def park(self) -> Generator[Effect, Any, Any]:
        """Suspend until resumed (used by synchronisation primitives)."""
        value = yield Suspend()
        if self._races is not None:
            # Join the clocks every resume() aimed at us published: the
            # waker's history happened-before anything we do from here.
            self._races.on_wake(self.pcb.pid)
        return value

    def resume(self, pid: Pid, value: Any = None) -> Generator[Effect, Any, None]:
        """Remote notification: wake ``pid`` wherever it lives."""
        if self._races is not None:
            self._races.on_resume(self.pcb.pid, pid)
        yield from self._runtime.migrations[self.pcb.node].resume_remote(pid, value)

    def resume_async(self, pid: Pid, value: Any = None) -> None:
        """Fire a remote notification without waiting for its ack.

        The transport still retransmits until delivery, so the wake-up is
        reliable; the caller just does not sit on the round-trip.  Used by
        Advance(ec), which may have many waiters to wake.
        """
        if self._races is not None:
            # The edge is captured at send time — the notification's
            # content is exactly the sender's history up to this point.
            self._races.on_resume(self.pcb.pid, pid)
        migration = self._runtime.migrations[self.pcb.node]
        self.node.driver.spawn(migration.resume_remote(pid, value), f"resume-{pid}")

    # ------------------------------------------------------------------
    # synchronisation (eventcounts, locks, sequencers, barriers)

    def ec_init(self, addr: int):
        return _ec.ec_init(self, addr)

    def ec_read(self, addr: int):
        return _ec.ec_read(self, addr)

    def ec_wait(self, addr: int, target: int):
        return _ec.ec_wait(self, addr, target)

    def ec_advance(self, addr: int):
        return _ec.ec_advance(self, addr)

    def lock_init(self, addr: int):
        return _lock.lock_init(self, addr)

    def lock_acquire(self, addr: int):
        return _lock.lock_acquire(self, addr)

    def lock_release(self, addr: int):
        return _lock.lock_release(self, addr)

    def seq_init(self, addr: int):
        return _seq.seq_init(self, addr)

    def seq_ticket(self, addr: int):
        return _seq.seq_ticket(self, addr)

    def barrier(self, addr: int, parties: int) -> _barrier.Barrier:
        return _barrier.Barrier(addr, parties)
