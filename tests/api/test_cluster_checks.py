"""Unit tests for the cluster-level invariant checker itself — the tool
the rest of the suite trusts must fail loudly on corrupted state."""

import numpy as np
import pytest

from repro.api.cluster import Cluster
from repro.config import ClusterConfig
from repro.machine.mmu import Access

from tests.svm.conftest import base, make_cluster, run_task


def settled_cluster():
    cluster = make_cluster(nodes=3)
    addr = base(cluster)

    def setup():
        yield from cluster.node(0).mem.write_i64(addr, 1)
        yield from cluster.node(1).mem.read_i64(addr)

    run_task(cluster, setup(), "setup")
    page = cluster.layout.page_of(addr)
    return cluster, page


def test_checker_accepts_settled_state():
    cluster, _ = settled_cluster()
    cluster.check_coherence_invariants()  # must not raise


def test_checker_detects_two_owners():
    cluster, page = settled_cluster()
    cluster.node(2).table.entry(page).is_owner = True
    with pytest.raises(AssertionError, match="owners"):
        cluster.check_coherence_invariants()


def test_checker_detects_no_owner():
    cluster, page = settled_cluster()
    cluster.node(0).table.entry(page).is_owner = False
    with pytest.raises(AssertionError, match="owners"):
        cluster.check_coherence_invariants()


def test_checker_detects_writable_owner_with_copies():
    cluster, page = settled_cluster()
    # Owner 0 currently READ (copy at 1); force WRITE to corrupt.
    cluster.node(0).table.entry(page).access = Access.WRITE
    with pytest.raises(AssertionError, match="writable but copies"):
        cluster.check_coherence_invariants()


def test_checker_detects_reader_missing_from_copy_set():
    cluster, page = settled_cluster()
    cluster.node(0).table.entry(page).copy_set.discard(1)
    with pytest.raises(AssertionError, match="not covered"):
        cluster.check_coherence_invariants()


def test_checker_detects_stale_copy_under_update_policy():
    config = ClusterConfig(nodes=2).with_svm(
        page_size=256, shared_size=256 * 1024, write_policy="update"
    )
    cluster = Cluster(config)
    addr = config.svm.shared_base

    def setup():
        yield from cluster.node(0).mem.write_i64(addr, 1)
        yield from cluster.node(1).mem.read_i64(addr)

    run_task(cluster, setup(), "setup")
    cluster.check_coherence_invariants()
    # Corrupt the copy behind the protocol's back.  It shares the owner's
    # read-only image, so swap in a private copy with one byte flipped.
    page = cluster.layout.page_of(addr)
    memory = cluster.node(1).memory
    bad = memory.data(page).copy()
    bad[0] ^= 0xFF
    memory.replace(page, bad)
    with pytest.raises(AssertionError, match="stale copy"):
        cluster.check_coherence_invariants()


def test_resident_bytes_reports_spread():
    cluster, page = settled_cluster()
    spread = cluster.resident_bytes()
    assert spread[0] > 0 and spread[1] > 0
    assert set(spread) == {0, 1, 2}


def test_cluster_builds_only_the_rng_streams_something_draws_from():
    def built(config):
        return set(Cluster(config).rngs._streams)

    config = ClusterConfig(nodes=3)  # LRU, lossless ring: nothing draws
    assert built(config) == set()
    capacity = config.with_memory(frames=8, replacement="random")
    assert built(capacity) == {"pager-0", "pager-1", "pager-2"}
    assert built(config.with_ring(loss_rate=0.05)) == {"ring"}
