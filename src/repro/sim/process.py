"""Generator-based lightweight tasks and their scheduling effects.

A :class:`Task` wraps a Python generator.  The generator *yields effects*
describing what it wants from its scheduler:

``Compute(ns)``
    Hold the CPU for ``ns`` ticks, then continue.  Under the plain
    :class:`SimDriver` this is just a delay; under the per-node process
    dispatcher (`repro.proc.scheduler`) the node stays busy.

``Sleep(ns)``
    Release the CPU and become runnable again after ``ns`` ticks.

``Suspend()``
    Release the CPU and park until another component calls
    :meth:`Task.wake`.  This is how page-fault waits, message waits and
    eventcount waits are expressed.

``YieldCpu()``
    Voluntarily reschedule (cooperative multitasking).

Effects are read-only values: a constant charge is built once, by its
owner, and yielded by every use.

Sub-operations compose with ``yield from``; a helper generator that never
yields costs only a cheap delegation, which keeps the non-faulting
memory-access fast path fast.  An event that continues a task calls
:meth:`Task.resume` itself, a system task's first step included: no
driver method sits between the kernel and the generator.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Generator

from repro.sim.kernel import Simulator

__all__ = [
    "Effect",
    "Compute",
    "Sleep",
    "Suspend",
    "YieldCpu",
    "TaskState",
    "Task",
    "TaskFailure",
    "Driver",
    "SimDriver",
]


class Effect:
    """Base class for scheduling effects yielded by tasks."""

    __slots__ = ()


class Compute(Effect):
    """Occupy the CPU for ``ns`` simulated nanoseconds."""

    __slots__ = ("ns",)

    def __init__(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative compute time {ns}")
        self.ns = ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Compute({self.ns})"


class Sleep(Effect):
    """Release the CPU; become ready again after ``ns`` nanoseconds."""

    __slots__ = ("ns",)

    def __init__(self, ns: int) -> None:
        if ns < 0:
            raise ValueError(f"negative sleep time {ns}")
        self.ns = ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Sleep({self.ns})"


class Suspend(Effect):
    """Park until an external :meth:`Task.wake` call.

    ``register``, if given, is called with the parking :class:`Task` the
    moment it blocks — this is how helper generators (locks, reply gates)
    capture "the current task" without threading it through every call.
    """

    __slots__ = ("register",)

    def __init__(self, register: "Callable[[Task], None] | None" = None) -> None:
        self.register = register

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Suspend()"


class YieldCpu(Effect):
    """Cooperatively yield the CPU to other ready processes."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "YieldCpu()"


class TaskState(enum.Enum):
    READY = "ready"
    RUNNING = "running"
    BLOCKED = "blocked"
    DONE = "done"
    FAILED = "failed"


#: Hoisted members: a module global is one dict load, an enum member a
#: class attribute lookup through the metaclass, on every event.
_READY = TaskState.READY
_RUNNING = TaskState.RUNNING
_BLOCKED = TaskState.BLOCKED


class TaskFailure(RuntimeError):
    """A task raised an unhandled exception (chained as __cause__)."""


class Driver:
    """Interprets effects for the tasks it owns.

    Two implementations exist: :class:`SimDriver` (system tasks — network,
    servers, timers) and the per-node process dispatcher in
    `repro.proc.scheduler` (application lightweight processes).
    """

    def handle(self, task: "Task", effect: Effect) -> None:
        raise NotImplementedError

    def wake(self, task: "Task", value: Any = None) -> None:
        raise NotImplementedError

    def finished(self, task: "Task") -> None:
        """Called after a task completes or fails (CPU hand-back hook)."""


class Task:
    """A lightweight thread of control driven by yielded effects."""

    _counter = 0

    def __init__(self, gen: Generator[Effect, Any, Any], driver: Driver, name: str = "") -> None:
        Task._counter += 1
        self.tid = Task._counter
        self.gen = gen
        self.driver = driver
        self.name = name or f"task-{self.tid}"
        self.state = _READY
        #: True once the task finished or failed.  A plain attribute
        #: (kept in sync by _finish/_fail) rather than a property derived
        #: from ``state``: it is checked on every step and wake.
        self.done = False
        self.result: Any = None
        self.error: BaseException | None = None
        self._joiners: list[Callable[["Task"], None]] = []

    # -- introspection ---------------------------------------------------

    @property
    def is_blocked(self) -> bool:
        return self.state is _BLOCKED

    def __repr__(self) -> str:
        return f"<Task {self.name} {self.state.value}>"

    # -- stepping ---------------------------------------------------------

    def resume(self, value: Any = None) -> None:
        """Advance the generator by one effect and route it to the
        driver.  The callback of every event that continues a task,
        which may land after the task ended (a late wake): a finished
        task is left alone."""
        if self.done:
            return
        self.state = _RUNNING
        try:
            effect = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - report then park
            self._fail(exc)
            return
        if not isinstance(effect, Effect):
            self._fail(TypeError(f"task {self.name} yielded non-effect {effect!r}"))
            return
        self.driver.handle(self, effect)

    def wake(self, value: Any = None) -> None:
        """Unpark a suspended task (delegates to its driver)."""
        self.driver.wake(self, value)

    # -- completion -------------------------------------------------------

    def on_done(self, fn: Callable[["Task"], None]) -> None:
        """Invoke ``fn(task)`` when the task completes (immediately if done)."""
        if self.done:
            fn(self)
        else:
            self._joiners.append(fn)

    def _finish(self, result: Any) -> None:
        self.state = TaskState.DONE
        self.done = True
        self.result = result
        self.driver.finished(self)
        joiners, self._joiners = self._joiners, []
        for fn in joiners:
            fn(self)

    def _fail(self, exc: BaseException) -> None:
        self.state = TaskState.FAILED
        self.done = True
        self.error = exc
        failure = TaskFailure(f"task {self.name} failed: {exc!r}")
        failure.__cause__ = exc
        self.driver.finished(self)
        joiners, self._joiners = self._joiners, []
        if joiners:
            for fn in joiners:
                fn(self)
        else:
            # Nobody is joining: escalate to the simulator via the driver.
            escalate = getattr(self.driver, "escalate", None)
            if escalate is not None:
                escalate(failure)
            else:  # pragma: no cover - drivers always escalate
                raise failure


#: Scheduling labels of task events, passed to the kernel unevaluated as
#: ``(_STEP, task.name)``: it formats one only for an installed Scheduler
#: (see :class:`repro.sim.kernel.PendingEvent`).
_STEP = "task:{}".format
_WAKE = "wake:{}".format


class SimDriver(Driver):
    """Default driver: effects map directly onto simulator events.

    Used for system activities (network delivery, server handlers, timers)
    that are not subject to a node's one-process-at-a-time CPU discipline.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim

    def spawn(self, gen: Generator[Effect, Any, Any], name: str = "") -> Task:
        """Create a task and schedule its first step at the current time."""
        task = Task(gen, self, name)
        self.sim.watch(task)
        self.sim.schedule_nocancel(0, task.resume, None, label=(_STEP, task.name))
        return task

    def handle(self, task: Task, effect: Effect) -> None:
        if isinstance(effect, (Compute, Sleep)):
            task.state = _BLOCKED
            self.sim.schedule_nocancel(
                effect.ns, task.resume, None, label=(_STEP, task.name)
            )
        elif isinstance(effect, Suspend):
            task.state = _BLOCKED
            if effect.register is not None:
                effect.register(task)
        elif isinstance(effect, YieldCpu):
            task.state = _READY
            self.sim.schedule_nocancel(0, task.resume, None, label=(_STEP, task.name))
        else:  # pragma: no cover - Effect subclasses are closed
            raise TypeError(f"unknown effect {effect!r}")

    def wake(self, task: Task, value: Any = None) -> None:
        if task.done:
            return
        task.state = _READY
        self.sim.schedule_nocancel(0, task.resume, value, label=(_WAKE, task.name))

    def finished(self, task: Task) -> None:
        self.sim.unwatch(task)

    def escalate(self, failure: TaskFailure) -> None:
        self.sim.report_failure(failure)
