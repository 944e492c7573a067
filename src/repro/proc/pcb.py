"""Process control blocks and process identifiers.

"Each process has a process control block (PCB) that contains necessary
information like process state, stack, context ... The PCBs are stored
in the private memory of the address space.  Therefore, the PID of a
process is represented as a pair — processor number and the address of
its PCB."

Here the PID is ``(birth_node, serial)``: the serial plays the role of
the PCB address within the birth processor's private memory.  After a
migration the birth node's registry keeps a stub PCB holding a
forwarding pointer, exactly as the paper describes ("the PCBs of
migrated processes are used for storing forwarding pointers"; stub
collection was not implemented in IVY and is not implemented here).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.proc.scheduler import NodeScheduler
    from repro.sim.process import Task

__all__ = ["Pid", "ProcState", "PCB", "PCB_WIRE_BYTES"]

#: Simulated wire size of a marshalled PCB (state, context, registers).
PCB_WIRE_BYTES = 256


@dataclass(frozen=True, order=True)
class Pid:
    """Process identifier: (birth processor, PCB serial)."""

    node: int
    serial: int

    def __str__(self) -> str:
        return f"{self.node}.{self.serial}"


class ProcState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    MIGRATING = "migrating"
    DONE = "done"


class PCB:
    """One lightweight process."""

    _serials = itertools.count(1)

    def __init__(
        self,
        birth_node: int,
        task: "Task",
        name: str = "",
        migratable: bool = True,
        stack_addr: int = 0,
        stack_pages: tuple[int, ...] = (),
    ) -> None:
        self.pid = Pid(birth_node, next(PCB._serials))
        self.task = task
        self.name = name or f"proc-{self.pid}"
        # Born BLOCKED; the scheduler's make_ready performs the READY
        # transition (which also guards against double-queueing).
        self.state = ProcState.BLOCKED
        #: Node the process currently resides on.
        self.node = birth_node
        #: Clients may toggle this at run time via a primitive.
        self.migratable = migratable
        #: Forwarding pointer left behind after migration (paper: stored
        #: in the stale PCB).  None while the PCB is live here.
        self.forwarded_to: int | None = None
        #: Shared-memory stack reservation (address + page numbers).
        self.stack_addr = stack_addr
        self.stack_pages = stack_pages
        #: Value to deliver when the task next resumes.
        self.wake_value: Any = None
        #: Schedulers whose live count includes this process: its node's,
        #: plus the source's while a migration hand-off is in flight.
        self.counted_by: list[NodeScheduler] = []

    @property
    def done(self) -> bool:
        return self.state is ProcState.DONE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PCB {self.name} pid={self.pid} on={self.node} {self.state.value}>"
