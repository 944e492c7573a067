"""Deeper migration machinery tests: forwarding chains, repeated moves,
and the interaction of migration with shared-memory state."""

import numpy as np

from repro import ClusterConfig, Ivy
from repro.proc.pcb import Pid
from repro.sync.eventcount import EC_RECORD_BYTES


def make_ivy(nodes=4):
    return Ivy(ClusterConfig(nodes=nodes))


def test_resume_follows_two_hop_forwarding_chain():
    """A process migrates twice; a wake-up addressed to its birth node
    must chase both forwarding pointers (via remote-op Forward)."""
    ivy = make_ivy(4)

    def wanderer(ctx, ec, out):
        ctx.set_migratable(True)
        yield from ctx.migrate_to(2)
        yield from ctx.migrate_to(3)
        yield from ctx.ec_wait(ec, 1)  # waiter registered from node 3
        yield from ctx.write_i64(out, ctx.node_id)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        out = yield from ctx.malloc(8)
        yield from ctx.ec_init(ec)
        yield from ctx.spawn(wanderer, ec, out, on=1)
        yield ctx.compute(80_000_000)
        yield from ctx.ec_advance(ec)
        yield ctx.compute(80_000_000)
        value = yield from ctx.read_i64(out)
        return value

    assert ivy.run(main) == 3
    # Stubs exist where the process used to live.
    sched1, sched2 = ivy.schedulers[1], ivy.schedulers[2]
    assert list(sched1.forwards.values()) == [2]
    assert list(sched2.forwards.values()) == [3]


def test_migrated_process_counts_toward_destination_load():
    ivy = make_ivy(2)
    counts = {}

    def sitter(ctx, ec):
        ctx.set_migratable(True)
        yield from ctx.migrate_to(1)
        counts["at_dest"] = ivy.schedulers[1].process_count()
        # Park here so src-side accounting can be inspected while the
        # process is alive at its destination.
        yield from ctx.ec_wait(ec, 1)

    def main(ctx):
        from repro.sim.process import Sleep

        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        yield from ctx.spawn(sitter, ec)
        # Sleep-wait (releases the CPU — no preemption here!) until the
        # migration settles and the source holds only this process.
        for _ in range(10_000):
            if ivy.schedulers[0].process_count() == 1 and counts.get("at_dest"):
                break
            yield Sleep(1_000_000)
        counts["at_src"] = ivy.schedulers[0].process_count()
        yield from ctx.ec_advance(ec)
        return True

    assert ivy.run(main)
    assert counts["at_dest"] == 1
    assert counts["at_src"] == 1  # just main: the PCB left a stub only


def test_shared_state_written_before_and_after_migration_is_coherent():
    ivy = make_ivy(3)

    def hopper(ctx, base, ec):
        ctx.set_migratable(True)
        for hop, node in enumerate([1, 2, 0]):
            yield from ctx.write_i64(base + 8 * hop, 100 + ctx.node_id)
            yield from ctx.migrate_to(node)
        yield from ctx.ec_advance(ec)

    def main(ctx):
        base = yield from ctx.malloc(64)
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        yield from ctx.spawn(hopper, base, ec)
        yield from ctx.ec_wait(ec, 1)
        vals = yield from ctx.read_array(base, np.int64, 3)
        return vals.tolist()

    # Writes happened from nodes 0, 1, 2 in turn.
    assert ivy.run(main) == [100, 101, 102]


def test_pid_identity_survives_migration():
    ivy = make_ivy(2)
    seen = {}

    def mover(ctx, ec):
        ctx.set_migratable(True)
        seen["before"] = ctx.self_pid()
        yield from ctx.migrate_to(1)
        seen["after"] = ctx.self_pid()
        yield from ctx.ec_advance(ec)

    def main(ctx):
        ec = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ec)
        yield from ctx.spawn(mover, ec)
        yield from ctx.ec_wait(ec, 1)
        return True

    assert ivy.run(main)
    assert seen["before"] == seen["after"]
    assert isinstance(seen["before"], Pid)
    # PID names the *birth* processor, per the paper's (processor, PCB).
    assert seen["before"].node == 0


def test_migrate_to_current_node_is_a_noop():
    ivy = make_ivy(2)

    def main(ctx):
        ctx.set_migratable(True)
        before = ivy.cluster.fabric.stats.messages
        yield from ctx.migrate_to(ctx.node_id)
        return ivy.cluster.fabric.stats.messages - before

    assert ivy.run(main) == 0
