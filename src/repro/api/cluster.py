"""Cluster assembly: boots one complete simulated node stack per station.

A :class:`Cluster` owns the simulator, the network fabric, and N
:class:`NodeContext` objects, each wiring together the full IVY stack of
Figure 2 in the paper::

    client programs
      process management | memory allocation | initialization   (repro.api.ivy)
      remote operation   | memory mapping                        (here)
      OS low-level support                                       (repro.machine)

This module stops at the "memory mapping" layer: hardware + network +
coherence protocol + shared address space.  `repro.api.ivy` adds
processes, synchronisation and allocation on top.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.config import ClusterConfig, ConfigError
from repro.machine.disk import Disk
from repro.machine.memory import PhysicalMemory
from repro.machine.mmu import AddressLayout
from repro.machine.pager import Pager
from repro.metrics.collect import Counters
from repro.net.fabric import Fabric, make_fabric
from repro.net.remoteop import RemoteOp
from repro.net.transport import Transport
from repro.obs import NULL_OBS, Observability
from repro.sim.kernel import Simulator
from repro.sim.process import SimDriver, Task
from repro.sim.rng import RngStreams
from repro.svm.address_space import SharedAddressSpace
from repro.svm.page import PageTable
from repro.svm.protocol import CoherenceProtocol, make_protocol

__all__ = ["Cluster", "NodeContext"]


class NodeContext:
    """Everything that lives on one simulated processor."""

    def __init__(self, cluster: "Cluster", node_id: int) -> None:
        config = cluster.config
        self.cluster = cluster
        self.node_id = node_id
        self.counters = Counters()
        replacement = config.memory.replacement
        self.memory = PhysicalMemory(
            config.svm.page_size,
            config.memory.frames,
            replacement=replacement,
            # Only the random policy draws; LRU builds no stream.
            rng=(
                cluster.rngs.stream(f"pager-{node_id}")
                if replacement == "random"
                else None
            ),
            # One buffer pool per fabric: read copies share frames.
            pages=cluster.fabric.pages,
        )
        self.disk = Disk(
            config.disk, config.svm.page_size, self.counters,
            node_id=node_id, obs=cluster.obs,
        )
        self.pager = Pager(self.memory, self.disk, self.counters, obs=cluster.obs)
        self.table = PageTable(
            node_id, cluster.layout.npages, config.svm.manager_node
        )
        self.transport = Transport(cluster.sim, cluster.driver, cluster.fabric, node_id, config)
        self.remote = RemoteOp(self.transport, cluster.driver, config, obs=cluster.obs)
        self.protocol: CoherenceProtocol = make_protocol(
            config.svm.algorithm,
            sim=cluster.sim,
            node_id=node_id,
            nnodes=config.nodes,
            layout=cluster.layout,
            table=self.table,
            memory=self.memory,
            pager=self.pager,
            remote=self.remote,
            config=config,
            counters=self.counters,
            obs=cluster.obs,
        )
        self.mem = SharedAddressSpace(
            self.protocol, cluster.layout, config.cpu, self.counters
        )
        #: Filled in by repro.api.ivy when process management boots.
        self.sched = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<NodeContext {self.node_id}>"


class Cluster:
    """A simulated loosely-coupled multiprocessor running the SVM."""

    def __init__(self, config: ClusterConfig) -> None:
        if config.nodes < 1:
            raise ConfigError("nodes", config.nodes, ("an integer >= 1",))
        if not 0 <= config.svm.manager_node < config.nodes:
            raise ConfigError(
                "svm.manager_node", config.svm.manager_node, ("an integer in 0..N-1",)
            )
        if config.svm.dynamic_broadcast_period < 0:  # x % -1 == 0: a hint every transfer
            raise ConfigError(
                "svm.dynamic_broadcast_period",
                config.svm.dynamic_broadcast_period,
                ("an integer >= 0",),
            )
        self.config = config
        self.sim = Simulator()
        #: Observability bundle (repro.obs), built from ``config.obs``
        #: (the shared NULL_OBS when it is off).
        self.obs = Observability(config.obs) if config.obs else NULL_OBS
        if self.obs:  # never rebind the shared NULL_OBS
            self.obs.bind_clock(self.sim.clock())
        self.rngs = RngStreams(config.seed)
        self.driver = SimDriver(self.sim)
        self.layout = AddressLayout(
            config.svm.shared_base, config.svm.shared_size, config.svm.page_size
        )
        self.fabric: Fabric = make_fabric(self.sim, config, self.rngs, obs=self.obs)
        self.nodes = [NodeContext(self, n) for n in range(config.nodes)]
        #: Online coherence oracle (set when ``config.checker`` is on).
        self.oracle: Any = None
        if config.checker:
            from repro.analysis.oracle import CoherenceOracle

            self.oracle = CoherenceOracle(self)
            for node in self.nodes:
                node.protocol.checker = self.oracle

    # ------------------------------------------------------------------

    def node(self, node_id: int) -> NodeContext:
        return self.nodes[node_id]

    def spawn_system(self, gen: Generator, name: str = "system") -> Task:
        """Run a generator as a system-level (interrupt-context) task."""
        return self.driver.spawn(gen, name)

    def run(self, until: int | None = None) -> int:
        """Drive the simulation; returns the final simulated time (ns)."""
        return self.sim.run(until=until)

    def close(self) -> None:
        """Dismantle a cluster that will run no further event.

        Each layer registers callbacks with the one below, and every
        registration is a reference cycle; emptying the registries and
        the event queue lets reference counting free the cluster at once.
        Nothing a ``finally`` block reads is unset, so a generator left
        suspended (budget, deadlock, violation) still finalises cleanly."""
        for node in self.nodes:
            node.transport.close()
            node.remote.close()
            node.pager.close()
        self.nodes.clear()
        self.fabric.close()
        self.sim.close()
        self.oracle = None  # it refers back here

    # ------------------------------------------------------------------
    # cluster-wide measurement

    def total_counters(self) -> Counters:
        return Counters.merge(node.counters for node in self.nodes)

    def check_coherence_invariants(self) -> None:
        """Assert the protocol's global invariants (used by tests after
        quiescence): exactly one owner per materialised page, writability
        implies sole copy, copy sets cover all readers."""
        npages_seen: set[int] = set()
        for node in self.nodes:
            npages_seen.update(node.table.known_entries())
        for page in sorted(npages_seen):
            owners = [
                n.node_id for n in self.nodes if n.table.entry(page).is_owner
            ]
            if len(owners) != 1:
                raise AssertionError(f"page {page} has owners {owners}")
            owner = self.nodes[owners[0]]
            entry = owner.table.entry(page)
            holders = {
                n.node_id
                for n in self.nodes
                if n.node_id != owner.node_id
                and n.table.entry(page).access.permits_read()
            }
            update_policy = self.config.svm.write_policy == "update"
            if entry.access.permits_write() and holders and not update_policy:
                raise AssertionError(
                    f"page {page}: owner {owner.node_id} writable but copies at {holders}"
                )
            if not holders <= entry.copy_set:
                raise AssertionError(
                    f"page {page}: readers {holders} not covered by "
                    f"copy_set {entry.copy_set}"
                )
            if update_policy and page in owner.memory:
                # Update policy: every live copy must hold the owner's bytes.
                golden = owner.memory.data(page)
                for holder in holders:
                    node = self.nodes[holder]
                    if page in node.memory:
                        if not (node.memory.data(page) == golden).all():
                            raise AssertionError(
                                f"page {page}: stale copy at node {holder}"
                            )

    def resident_bytes(self) -> dict[int, int]:
        """Bytes of shared pages resident per node (memory-spread metric)."""
        return {
            node.node_id: len(node.memory) * self.config.svm.page_size
            for node in self.nodes
        }
