"""Process migration and remote resume.

A migration performs exactly the paper's four steps:

1. send the PCB of the process to the destination processor,
2. copy the *current* page of the process's stack and transfer its
   ownership (so the dispatcher on the destination does not page-fault),
3. transfer the ownership (only — "its content is meaningless") of the
   pages in the upper portion of the stack, and
4. put the PCB into the ready queue on the destination processor.

The stale PCB at the source becomes a forwarding pointer; the remote
resume operation (used by eventcounts to wake processes that have moved)
follows forwarding pointers with the remote-operation layer's Forward
mechanism, so a resume hops stale nodes without intermediate replies.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.api.cluster import NodeContext
from repro.metrics.collect import Counters
from repro.net.packet import request_size
from repro.net.remoteop import Forward, Reply
from repro.proc.pcb import PCB, PCB_WIRE_BYTES, Pid
from repro.proc.scheduler import NodeScheduler
from repro.sim.process import Effect

__all__ = ["MigrationService"]

OP_MIGRATE = "proc.migrate"
OP_RESUME = "proc.resume"
OP_WORKREQ = "proc.workreq"


class MigrationService:
    """Per-node migration/resume endpoints (registered remote operations)."""

    def __init__(self, node: NodeContext, sched: NodeScheduler) -> None:
        self.node = node
        self.sched = sched
        self.counters: Counters = node.counters
        node.remote.register(OP_MIGRATE, self._serve_migrate)
        node.remote.register(OP_RESUME, self._serve_resume)
        # OP_WORKREQ is registered by the load balancer, which owns policy.

    # ------------------------------------------------------------------
    # outbound

    def migrate_out(self, pcb: PCB, dst: int) -> Generator[Effect, Any, bool]:
        """Move a ready, migratable process to ``dst``.

        Must be called with ``pcb`` already removed from the ready queue
        (state MIGRATING; see :meth:`NodeScheduler.steal_ready`).
        """
        if dst == self.node.node_id:
            raise ValueError("migration to the same processor")
        self.counters.inc("migrations_started")
        ok = yield from self.node.remote.request(
            dst, OP_MIGRATE, pcb, nbytes=request_size(PCB_WIRE_BYTES)
        )
        if not ok:  # pragma: no cover - destination never refuses today
            self.sched.make_ready(pcb)
            return False
        self.sched.disown(pcb, dst)
        return True

    def resume_remote(self, pid: Pid, value: Any = None) -> Generator[Effect, Any, bool]:
        """Wake process ``pid`` wherever it lives (follows forwarding)."""
        target: int = pid.node
        pcb, fwd = self.sched.lookup(pid)
        if pcb is not None:
            self.sched.wake(pcb.task, value)
            return True
        if fwd is not None:
            target = fwd
        ok = yield from self.node.remote.request(
            target, OP_RESUME, (pid.node, pid.serial, value), nbytes=request_size(24)
        )
        return bool(ok)

    # ------------------------------------------------------------------
    # servers

    def _serve_migrate(self, origin: int, pcb: PCB) -> Generator[Effect, Any, Any]:
        """Adopt an inbound process: stack transfer, then enqueue."""
        protocol = self.node.protocol
        if pcb.stack_pages:
            # Current stack page travels with its contents ("to avoid a
            # page fault in the process dispatcher")...
            yield from protocol.ensure_write(pcb.stack_pages[0])
            # ...the upper portion moves by ownership transfer only.
            for page in pcb.stack_pages[1:]:
                yield from protocol.take_ownership(page)
        self.sched.adopt(pcb)
        self.counters.inc("migrations_accepted")
        return Reply(True, nbytes=request_size(0))

    def _serve_resume(
        self, origin: int, payload: tuple[int, int, Any]
    ) -> Generator[Effect, Any, Any]:
        birth, serial, value = payload
        pid = Pid(birth, serial)
        pcb, fwd = self.sched.lookup(pid)
        if pcb is not None:
            self.sched.wake(pcb.task, value)
            return True
        if fwd is not None:
            return Forward(fwd)
        # Unknown pid: the process was born elsewhere and never lived
        # here — point the caller home (it may have raced a migration).
        if birth != self.node.node_id:
            return Forward(birth)
        return False
        yield  # pragma: no cover - makes this a generator
