"""Process migration and passive load balancing, end to end."""

import numpy as np
import pytest

from repro import ClusterConfig, Ivy
from repro.machine.mmu import Access
from repro.sync.eventcount import EC_RECORD_BYTES


def make_ivy(nodes=3, load_balancing=False, **sched_kw):
    config = ClusterConfig(nodes=nodes).with_sched(
        load_balancing=load_balancing, **sched_kw
    )
    return Ivy(config)


def test_manual_migration_moves_execution():
    ivy = make_ivy(nodes=3)

    def main(ctx):
        path = [ctx.node_id]
        yield from ctx.migrate_to(2)
        path.append(ctx.node_id)
        yield from ctx.migrate_to(1)
        path.append(ctx.node_id)
        return path

    # main is spawned non-migratable; that flag gates only *involuntary*
    # migration, so flip it for the voluntary walk.
    def wrapper(ctx):
        ctx.set_migratable(True)
        result = yield from main(ctx)
        return result

    assert ivy.run(wrapper) == [0, 2, 1]
    assert ivy.node(0).counters["processes_migrated_out"] == 1
    assert ivy.node(2).counters["processes_migrated_out"] == 1
    assert ivy.node(1).counters["processes_adopted"] == 1


def test_migration_transfers_stack_page_ownership():
    ivy = make_ivy(nodes=2)
    seen = {}

    def child(ctx, done_ec):
        seen["stack_pages"] = ctx.pcb.stack_pages
        yield from ctx.migrate_to(1)
        seen["node_after"] = ctx.node_id
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        yield from ctx.spawn(child, done)
        yield from ctx.ec_wait(done, 1)
        return True

    assert ivy.run(main)
    assert seen["node_after"] == 1
    # Every stack page is now owned by node 1.
    for page in seen["stack_pages"]:
        entry0 = ivy.node(0).table.entry(page)
        entry1 = ivy.node(1).table.entry(page)
        assert entry1.is_owner and not entry0.is_owner
        assert entry0.access is Access.NIL
    # The current (first) page moved with content, uppers by chown only.
    assert ivy.node(1).counters["ownership_transfers"] >= 1


def test_migrated_process_memory_ops_use_new_node():
    ivy = make_ivy(nodes=2)

    def main(ctx):
        ctx.set_migratable(True)
        addr = yield from ctx.malloc(8)
        yield from ctx.write_i64(addr, 41)
        yield from ctx.migrate_to(1)
        # This read must fault on node 1 and fetch the page from node 0.
        value = yield from ctx.read_i64(addr)
        yield from ctx.write_i64(addr, value + 1)
        out = yield from ctx.read_i64(addr)
        return out

    assert ivy.run(main) == 42
    assert ivy.node(1).counters["read_faults"] >= 1


def test_remote_resume_follows_forwarding_pointers():
    """A process waits on an eventcount, then is woken after it migrated:
    the resume must chase the forwarding pointer."""
    ivy = make_ivy(nodes=3)

    def sleeper(ctx, ec, out_addr):
        ctx.set_migratable(True)
        yield from ctx.migrate_to(2)  # waiter registered FROM node 2
        yield from ctx.ec_wait(ec, 1)
        yield from ctx.write_i64(out_addr, ctx.node_id + 500)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        out = yield from ctx.malloc(8)
        yield from ctx.ec_init(ec)
        yield from ctx.spawn(sleeper, ec, out, on=1)
        yield ctx.compute(50_000_000)  # let the sleeper migrate and wait
        yield from ctx.ec_advance(ec)
        yield ctx.compute(50_000_000)
        value = yield from ctx.read_i64(out)
        return value

    assert ivy.run(main) == 502


def test_passive_load_balancer_migrates_work():
    ivy = make_ivy(
        nodes=2, load_balancing=True, lower_threshold=1, upper_threshold=2
    )

    def worker(ctx, done_ec):
        for _ in range(40):
            yield ctx.compute(30_000_000)
            yield ctx.yield_cpu()
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        # Pile 6 workers on node 0; node 1 is idle and must pull work.
        for _ in range(6):
            yield from ctx.spawn(worker, done)
        yield from ctx.ec_wait(done, 6)
        return True

    assert ivy.run(main)
    assert ivy.node(0).counters["processes_migrated_out"] >= 1
    assert ivy.node(1).counters["processes_adopted"] >= 1
    assert ivy.node(1).counters["work_requests_granted"] >= 1


def test_quiet_peers_never_ping_back_so_no_requests_fly():
    """The hint protocol minimises rejections: a peer below the upper
    threshold never advertises itself, so the idle node never asks."""
    ivy = make_ivy(
        nodes=2, load_balancing=True, lower_threshold=1, upper_threshold=50
    )

    def worker(ctx, done_ec):
        for _ in range(20):
            yield ctx.compute(40_000_000)
            yield ctx.yield_cpu()
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        for _ in range(4):
            yield from ctx.spawn(worker, done)
        yield from ctx.ec_wait(done, 4)
        return True

    assert ivy.run(main)
    assert ivy.node(0).counters["processes_migrated_out"] == 0
    assert ivy.node(1).counters["work_requests_rejected"] == 0
    assert ivy.node(1).counters["lb_announcements"] >= 1


def test_stale_hint_leads_to_rejected_work_request():
    """Hints are 'not necessarily correct': a request sent on a stale
    hint is rejected by a peer that is no longer busy."""
    ivy = make_ivy(
        nodes=2, load_balancing=False, lower_threshold=1, upper_threshold=2
    )

    def main(ctx):
        # Seed node 1 with a stale belief that node 0 is very busy.
        ivy.schedulers[1].load_hints[0] = 10
        return True
        yield  # pragma: no cover

    ivy.run(main)
    balancer = ivy.balancers[1]
    assert balancer._pick_target() == 0
    task = ivy.cluster.driver.spawn(balancer._ask(0), "ask")
    ivy.cluster.run()
    assert task.error is None
    # Node 0 has nothing to give: the request must be rejected.
    assert ivy.node(1).counters["work_requests_rejected"] == 1
    assert ivy.node(0).counters["processes_migrated_out"] == 0


def test_non_migratable_processes_stay_put():
    ivy = make_ivy(
        nodes=2, load_balancing=True, lower_threshold=1, upper_threshold=1
    )

    def worker(ctx, done_ec):
        ctx.set_migratable(False)
        for _ in range(20):
            yield ctx.compute(30_000_000)
            yield ctx.yield_cpu()
        yield from ctx.ec_advance(done_ec)

    def main(ctx):
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        for _ in range(4):
            yield from ctx.spawn(worker, done)
        yield from ctx.ec_wait(done, 4)
        return True

    assert ivy.run(main)
    assert ivy.node(0).counters["processes_migrated_out"] == 0
