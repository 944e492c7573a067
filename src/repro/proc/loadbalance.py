"""Passive load balancing — the null process's timeout duty.

"The main idea of the algorithm is to let each processor ask for work
when it is idle using some hints."  Processors keep each other's load
hints fresh by piggybacking a process-count byte on every message; an
idle processor picks the busiest-looking peer and sends a work request;
the peer grants it by migrating a ready process only while its own
process count exceeds the upper threshold.

The paper reports that using the *ready* process count as the only
criterion "will not work well"; the better policy uses the total process
count (ready + suspended) gated by lower/upper thresholds.  Both
policies are implemented — ``SchedConfig.ready_count_only`` selects the
bad one, so the ablation benchmark can reproduce the claim.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.api.cluster import NodeContext
from repro.net.packet import request_size
from repro.proc.migration import OP_WORKREQ, MigrationService
from repro.proc.scheduler import NodeScheduler
from repro.sim.kernel import CancelHandle

__all__ = ["LoadBalancer"]

OP_ANNOUNCE = "lb.announce"
OP_PING = "lb.ping"


class LoadBalancer:
    """Per-node passive load balancer driven by the null-process timeout."""

    def __init__(
        self, node: NodeContext, sched: NodeScheduler, migration: MigrationService
    ) -> None:
        self.node = node
        self.sched = sched
        self.migration = migration
        self.config = node.config.sched
        self.counters = node.counters
        self._timer: CancelHandle | None = None
        self._asking = False
        self._stopped = True
        node.remote.register(OP_WORKREQ, self._serve_workreq)
        node.remote.register(OP_ANNOUNCE, self._serve_announce)
        node.remote.register(OP_PING, self._serve_ping)

    # ------------------------------------------------------------------
    # lifecycle (timers must stop when the program ends, or the event
    # queue never drains)

    def start(self) -> None:
        self._stopped = False
        self._arm()

    def stop(self) -> None:
        self._stopped = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _arm(self) -> None:
        if self._stopped:
            return
        self._timer = self.node.sim.schedule(
            self.config.null_timeout, self._tick
        )

    # ------------------------------------------------------------------
    # the timeout duty

    def _tick(self) -> None:
        if self._stopped:
            return
        if self._wants_work() and not self._asking:
            target = self._pick_target()
            self._asking = True
            if target is not None:
                self.node.driver.spawn(
                    self._ask(target), f"lb-ask-{self.node.node_id}"
                )
            else:
                # No usable hint yet: broadcast our (lack of) load with the
                # no-reply scheme — the paper's stated use of that scheme
                # ("broadcasting approximate information for process
                # scheduling").  Busy peers ping back; the ping's
                # piggybacked load byte seeds our hint table.
                self.node.driver.spawn(
                    self._announce(), f"lb-announce-{self.node.node_id}"
                )
        self._arm()

    def _wants_work(self) -> bool:
        if self.config.ready_count_only:
            return self.sched.ready_count() == 0
        return self.sched.process_count() < self.config.lower_threshold or (
            self.sched.idle and self.sched.process_count() == 0
        )

    def _busy_enough(self) -> bool:
        if self.config.ready_count_only:
            return self.sched.ready_count() > 0
        return self.sched.process_count() > self.config.upper_threshold

    def _pick_target(self) -> int | None:
        """Busiest peer according to the piggybacked hints."""
        best, best_load = None, 0
        for peer, load in sorted(self.sched.load_hints.items()):
            if peer == self.node.node_id:
                continue
            if load > best_load:
                best, best_load = peer, load
        threshold = 1 if self.config.ready_count_only else self.config.upper_threshold
        if best is not None and best_load > threshold:
            return best
        return None

    def _announce(self) -> Generator:
        try:
            yield from self.node.remote.broadcast(
                OP_ANNOUNCE, self.node.node_id, nbytes=request_size(8), scheme="none"
            )
            self.counters.inc("lb_announcements")
        finally:
            self._asking = False

    def _serve_announce(self, origin: int, idle_node: int) -> Generator:
        """A peer announced it is starving; if we are busy, ping it so our
        piggybacked load byte lands in its hint table."""
        if self._busy_enough():
            yield from self.node.remote.request(
                idle_node, OP_PING, None, nbytes=request_size(0)
            )
        return None

    def _serve_ping(self, origin: int, payload: Any) -> Generator:
        return True
        yield  # pragma: no cover - makes this a generator

    def _ask(self, target: int) -> Generator:
        try:
            granted = yield from self.node.remote.request(
                target, OP_WORKREQ, self.node.node_id, nbytes=request_size(8)
            )
            if granted:
                self.counters.inc("work_requests_granted")
            else:
                self.counters.inc("work_requests_rejected")
        finally:
            self._asking = False

    # ------------------------------------------------------------------

    def _serve_workreq(self, origin: int, requester: int) -> Generator[Any, Any, bool]:
        """Grant a work request by migrating a ready process out."""
        if not self._busy_enough():
            return False
        pcb = self.sched.steal_ready(want_migratable=True)
        if pcb is None:
            return False
        ok = yield from self.migration.migrate_out(pcb, requester)
        return ok
        yield  # pragma: no cover - makes this a generator
