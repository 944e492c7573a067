"""Tests for the write-update coherence extension.

Invariant set differs from invalidation: read copies stay alive and are
refreshed on every store, so the checks are (a) no copy is ever stale
after quiescence, (b) values read anywhere equal the last write, and
(c) no invalidations are sent for data pages.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.cluster import Cluster
from repro.config import ClusterConfig
from repro.machine.mmu import Access

from tests.svm.conftest import run_task


def bump_cell(view):
    cell = view.view(np.int64)
    cell[0] += 1
    return int(cell[0])


PAGE = 256


def make_update_cluster(nodes=3, algorithm="dynamic", frames=None):
    config = (
        ClusterConfig(nodes=nodes)
        .with_svm(
            algorithm=algorithm,
            page_size=PAGE,
            shared_size=PAGE * 4096,
            write_policy="update",
        )
        .with_memory(frames=frames)
    )
    return Cluster(config)


def addr_of(cluster, cell=0):
    return cluster.config.svm.shared_base + cell * PAGE


def test_copies_survive_writes_and_stay_fresh():
    cluster = make_update_cluster(nodes=4)
    addr = addr_of(cluster)
    page = cluster.layout.page_of(addr)

    def seq():
        yield from cluster.node(0).mem.write_i64(addr, 1)
        for reader in (1, 2, 3):
            v = yield from cluster.node(reader).mem.read_i64(addr)
            assert v == 1
        # Owner writes again: copies must be refreshed, not destroyed.
        yield from cluster.node(0).mem.write_i64(addr, 2)

    run_task(cluster, seq(), "seq")
    for reader in (1, 2, 3):
        entry = cluster.node(reader).table.entry(page)
        assert entry.access is Access.READ, f"copy at {reader} was invalidated"
        local = cluster.node(reader).memory.data(page)[:8].view(np.int64)[0]
        assert local == 2, f"stale copy at node {reader}"
    assert cluster.node(0).counters["invalidations_sent"] == 0
    assert cluster.node(0).counters["updates_sent"] == 3
    cluster.check_coherence_invariants()


def test_cached_reads_after_update_need_no_messages():
    cluster = make_update_cluster(nodes=2)
    addr = addr_of(cluster)

    def seq():
        yield from cluster.node(0).mem.write_i64(addr, 1)
        yield from cluster.node(1).mem.read_i64(addr)
        yield from cluster.node(0).mem.write_i64(addr, 2)
        before = cluster.fabric.stats.messages
        v = yield from cluster.node(1).mem.read_i64(addr)  # hits the copy
        return v, cluster.fabric.stats.messages - before

    value, messages = run_task(cluster, seq(), "seq")
    assert value == 2
    assert messages == 0  # the update already delivered the fresh bytes


def test_ownership_transfer_demotes_old_owner_to_reader():
    cluster = make_update_cluster(nodes=3)
    addr = addr_of(cluster)
    page = cluster.layout.page_of(addr)

    def seq():
        yield from cluster.node(0).mem.write_i64(addr, 10)
        yield from cluster.node(1).mem.write_i64(addr, 20)  # takes ownership
        v0 = yield from cluster.node(0).mem.read_i64(addr)
        return v0

    v0 = run_task(cluster, seq(), "seq")
    assert v0 == 20
    entry0 = cluster.node(0).table.entry(page)
    entry1 = cluster.node(1).table.entry(page)
    assert entry1.is_owner
    assert not entry0.is_owner and entry0.access is Access.READ
    assert 0 in entry1.copy_set
    cluster.check_coherence_invariants()


def test_atomic_sections_push_updates():
    cluster = make_update_cluster(nodes=3)
    addr = addr_of(cluster)

    def bump(view):
        cell = view.view(np.int64)
        cell[0] += 1
        return int(cell[0])

    def seq():
        yield from cluster.node(0).mem.write_i64(addr, 0)
        yield from cluster.node(1).mem.read_i64(addr)  # node 1 holds a copy
        yield from cluster.node(0).mem.atomic_update(addr, 8, bump)
        local = cluster.node(1).memory.data(cluster.layout.page_of(addr))
        return int(local[:8].view(np.int64)[0])

    assert run_task(cluster, seq(), "seq") == 1


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    program=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["read", "write", "incr"]),
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=10,
        ),
        min_size=2,
        max_size=4,
    ),
    algorithm=st.sampled_from(["centralized", "dynamic"]),
    frames=st.sampled_from([None, 3]),
)
def test_random_programs_stay_coherent_under_update_policy(program, algorithm, frames):
    cluster = make_update_cluster(nodes=len(program), algorithm=algorithm, frames=frames)

    def worker(node_id, ops):
        mem = cluster.node(node_id).mem
        for kind, cell, value in ops:
            addr = addr_of(cluster, cell)
            if kind == "read":
                yield from mem.read_i64(addr)
            elif kind == "write":
                yield from mem.write_i64(addr, value)
            else:
                yield from mem.atomic_update(addr, 8, bump_cell)

    tasks = [
        cluster.spawn_system(worker(n, ops), f"prog{n}")
        for n, ops in enumerate(program)
    ]
    cluster.run()
    for t in tasks:
        if t.error is not None:
            raise t.error
    # Final agreement: every node reads the same value for every cell.
    views = []
    for n in range(len(program)):
        def reader(n=n):
            out = []
            for cell in range(5):
                v = yield from cluster.node(n).mem.read_i64(addr_of(cluster, cell))
                out.append(v)
            return out

        views.append(run_task(cluster, reader(), f"final{n}"))
    for view in views[1:]:
        assert view == views[0], f"nodes disagree: {views}"
    cluster.check_coherence_invariants()


def test_apps_work_under_update_policy():
    from repro.apps.jacobi import JacobiApp
    from repro.exps.parallel import run_app

    config = ClusterConfig().with_svm(write_policy="update")
    run_app(lambda p: JacobiApp(p, n=48, iters=3), 3, config=config)
