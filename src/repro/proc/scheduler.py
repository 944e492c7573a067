"""Per-node process dispatcher: LIFO ready queue, no priorities.

"The process dispatcher always picks up the process in the front of the
ready queue.  If there is no ready process available, the dispatcher
runs a system process called the null process."

The dispatcher is a :class:`repro.sim.process.Driver`: application
lightweight processes yield the same effects as system tasks, but here
``Compute`` keeps the node's CPU busy (one running process per node, no
preemption), while ``Sleep``/``Suspend`` hand the CPU to the next ready
process — that hand-off during page-fault waits is how IVY overlaps
communication with computation.  The end of a ``Compute`` and a
dispatch both resume the task directly (:meth:`Task.resume`).

The null process is represented by its two observable duties rather than
a spinning task: retransmission checking lives in the transport's
timers, and the passive load-balancing timeout is
`repro.proc.loadbalance` (which consults :meth:`NodeScheduler.idle`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator

from repro.config import ClusterConfig
from repro.metrics.collect import Counters
from repro.obs import NULL_OBS, Observability
from repro.proc.pcb import PCB, Pid, ProcState
from repro.sim.kernel import Simulator
from repro.sim.process import (
    Compute,
    Driver,
    Effect,
    Sleep,
    Suspend,
    Task,
    TaskState,
    YieldCpu,
)

__all__ = ["NodeScheduler"]

#: Hoisted members (a module global load, not an enum lookup, per event).
_READY, _RUNNING, _BLOCKED = ProcState.READY, ProcState.RUNNING, ProcState.BLOCKED
_DONE = ProcState.DONE
_TASK_READY, _TASK_BLOCKED = TaskState.READY, TaskState.BLOCKED


class NodeScheduler(Driver):
    """Schedules lightweight processes on one simulated processor."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        config: ClusterConfig,
        counters: Counters,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.config = config
        self.counters = counters
        self.obs = obs
        self.ready: deque[PCB] = deque()
        self.current: PCB | None = None
        #: Every PCB that lives or finished here, by pid; only a migration
        #: away removes one (its stub lives in `forwards`).
        self.registry: dict[Pid, PCB] = {}
        #: How many registry entries are not done: `process_count` is read
        #: for every outgoing message, the registry only ever grows.
        self._live = 0
        #: Forwarding pointers of migrated-away processes.
        self.forwards: dict[Pid, int] = {}
        #: Load hints gleaned from message piggybacks: node -> process
        #: count (``Ivy`` shares the transport's ``load_hints`` here).
        self.load_hints: dict[int, int] = {}
        self._dispatch_pending = False

    # ------------------------------------------------------------------
    # creation / introspection

    def spawn(
        self,
        gen: Generator,
        name: str = "",
        migratable: bool = True,
        stack_addr: int = 0,
        stack_pages: tuple[int, ...] = (),
    ) -> PCB:
        """Create a lightweight process and make it ready (LIFO front)."""
        task = Task(gen, self, name)
        pcb = PCB(
            self.node_id, task, name, migratable,
            stack_addr=stack_addr, stack_pages=stack_pages,
        )
        task.pcb = pcb  # type: ignore[attr-defined]
        self.sim.watch(task)
        self._register(pcb)
        self.counters.inc("processes_created")
        self.make_ready(pcb)
        return pcb

    def process_count(self) -> int:
        """Ready + suspended + running processes on this node (the load
        criterion the paper found to work, vs. ready count alone)."""
        return self._live

    def _register(self, pcb: PCB) -> None:
        self.registry[pcb.pid] = pcb
        if self not in pcb.counted_by:
            pcb.counted_by.append(self)
            self._live += 1

    def ready_count(self) -> int:
        return len(self.ready)

    @property
    def idle(self) -> bool:
        return self.current is None and not self.ready

    def load_byte(self) -> int:
        """The load hint piggybacked on every outgoing message."""
        return min(255, self._live)

    # ------------------------------------------------------------------
    # driver protocol

    def handle(self, task: Task, effect: Effect) -> None:
        if isinstance(effect, Compute):
            # The running process keeps the CPU; no dispatch.  Its CPU
            # time is the profiler's "compute" source.
            if self.obs.enabled:
                self.obs.interval(
                    self.node_id, "compute", self.sim.now, self.sim.now + effect.ns
                )
            self.sim.schedule_nocancel(effect.ns, task.resume)
            return
        pcb: PCB = task.pcb  # type: ignore[attr-defined]
        if isinstance(effect, Sleep):
            task.state = _TASK_BLOCKED
            pcb.state = _BLOCKED
            self.current = None
            self.sim.schedule_nocancel(effect.ns, self.make_ready, pcb)
            self._schedule_dispatch()
        elif isinstance(effect, Suspend):
            task.state = _TASK_BLOCKED
            pcb.state = _BLOCKED
            self.current = None
            if effect.register is not None:
                effect.register(task)
            self._schedule_dispatch()
        elif isinstance(effect, YieldCpu):
            task.state = _TASK_READY
            pcb.state = _READY
            self.current = None
            self.ready.append(pcb)  # back of the queue: give others a turn
            self._schedule_dispatch()
        else:  # pragma: no cover - Effect subclasses are closed
            raise TypeError(f"unknown effect {effect!r}")

    def wake(self, task: Task, value: Any = None) -> None:
        if task.done:
            return
        pcb: PCB = task.pcb  # type: ignore[attr-defined]
        pcb.wake_value = value
        self.make_ready(pcb)

    def finished(self, task: Task) -> None:
        pcb: PCB = task.pcb  # type: ignore[attr-defined]
        # The PCB keeps the task (its result, its error); nothing asks a
        # finished task for its PCB, and the pair would be a cycle.
        del task.pcb  # type: ignore[attr-defined]
        pcb.state = _DONE
        self.sim.unwatch(task)
        # A process that finishes right after a migration is still in the
        # source's registry until the hand-off reply gets there.
        for sched in pcb.counted_by:
            sched._live -= 1
        pcb.counted_by.clear()
        self.counters.inc("processes_finished")
        if self.current is pcb:
            self.current = None
        self._schedule_dispatch()

    def escalate(self, failure: BaseException) -> None:
        self.sim.report_failure(failure)

    def close(self) -> None:
        """Forget every process (each one's task names this scheduler
        as its driver)."""
        self.registry.clear()

    # ------------------------------------------------------------------
    # queue management

    def make_ready(self, pcb: PCB) -> None:
        """Put a process at the front of the ready queue (LIFO policy).

        Idempotent against spurious wake-ups: a process that is already
        READY or RUNNING is left alone.
        """
        state = pcb.state
        if state is _READY or state is _RUNNING or state is _DONE:
            return
        pcb.state = _READY
        pcb.task.state = _TASK_READY
        self.ready.appendleft(pcb)
        self._schedule_dispatch()

    def steal_ready(self, want_migratable: bool = True) -> PCB | None:
        """Remove and return a migratable process from the *back* of the
        ready queue (the coldest one), for migration."""
        for pcb in reversed(self.ready):
            if pcb.migratable or not want_migratable:
                self.ready.remove(pcb)
                pcb.state = ProcState.MIGRATING
                return pcb
        return None

    def adopt(self, pcb: PCB) -> None:
        """Install a migrated-in PCB and make it ready here."""
        pcb.node = self.node_id
        pcb.task.driver = self
        pcb.forwarded_to = None
        self._register(pcb)
        self.counters.inc("processes_adopted")
        self.make_ready(pcb)

    def disown(self, pcb: PCB, dst: int) -> None:
        """Leave a forwarding stub for a migrated-away process."""
        self.registry.pop(pcb.pid, None)
        if self in pcb.counted_by:
            pcb.counted_by.remove(self)
            self._live -= 1
        self.forwards[pcb.pid] = dst
        self.counters.inc("processes_migrated_out")

    def lookup(self, pid: Pid) -> tuple[PCB | None, int | None]:
        """Resolve a pid locally: (live PCB, None) or (None, forward node)."""
        pcb = self.registry.get(pid)
        if pcb is not None:
            return pcb, None
        return None, self.forwards.get(pid)

    # ------------------------------------------------------------------
    # dispatch machinery

    def _schedule_dispatch(self) -> None:
        if self._dispatch_pending:
            return
        self._dispatch_pending = True
        self.sim.schedule_nocancel(0, self._dispatch)

    def _dispatch(self) -> None:
        self._dispatch_pending = False
        if self.current is not None or not self.ready:
            return
        pcb = self.ready.popleft()
        self.current = pcb
        pcb.state = _RUNNING
        self.counters.inc("context_switches")
        if self.obs.enabled:
            self.obs.interval(
                self.node_id, "compute",
                self.sim.now, self.sim.now + self.config.cpu.context_switch,
            )
        value, pcb.wake_value = pcb.wake_value, None
        self.sim.schedule_nocancel(self.config.cpu.context_switch, pcb.task.resume, value)
