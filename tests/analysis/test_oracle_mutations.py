"""The oracle must fail loudly on corrupted protocol state — these tests
inject the classic coherence bugs directly into live page tables and
assert the exact rule that fires."""

import pytest

from repro.analysis import InvariantViolation
from repro.sim.process import TaskFailure
from tests.svm.conftest import base, make_cluster, run_task


def expect_violation(fn):
    """Run ``fn`` and return the InvariantViolation it must raise (the
    sim kernel escalates an un-joined task's failure as TaskFailure with
    the violation as its cause)."""
    try:
        fn()
    except InvariantViolation as violation:
        return violation
    except TaskFailure as failure:
        assert isinstance(failure.__cause__, InvariantViolation)
        return failure.__cause__
    raise AssertionError("expected an InvariantViolation")


def checked_cluster(algorithm="dynamic"):
    """A cluster with the oracle attached and one page shared by two
    nodes: node 0 owns it (READ after serving), node 1 holds a copy."""
    cluster = make_cluster(nodes=3, algorithm=algorithm, checker=True)
    addr = base(cluster)

    def setup():
        yield from cluster.node(0).mem.write_i64(addr, 7)
        yield from cluster.node(1).mem.read_i64(addr)

    run_task(cluster, setup(), "setup")
    return cluster, cluster.layout.page_of(addr), addr


def test_oracle_accepts_uncorrupted_traffic():
    cluster, page, addr = checked_cluster()

    def more_traffic():
        yield from cluster.node(2).mem.write_i64(addr, 9)
        yield from cluster.node(0).mem.read_i64(addr)
        yield from cluster.node(1).mem.read_i64(addr)

    run_task(cluster, more_traffic(), "traffic")
    cluster.oracle.check_quiescent()  # must not raise
    assert cluster.total_counters().violations() == {}
    assert cluster.oracle.checks_run > 0


def test_oracle_flags_invalidation_of_nonholder():
    """A bogus copy-set member makes the owner invalidate a node that was
    never granted a copy — caught the moment the invalidation is sent."""
    cluster, page, addr = checked_cluster()
    cluster.node(0).table.entry(page).copy_set.add(2)

    violation = expect_violation(
        lambda: run_task(cluster, cluster.node(0).mem.write_i64(addr, 9), "w")
    )
    assert violation.rule == "invalidate-nonholder"
    assert cluster.total_counters()["violation.invalidate-nonholder"] == 1


def test_oracle_flags_lost_copyset_member():
    """Dropping a reader from the owner's copy set lets a write upgrade
    skip its invalidation — the reader keeps a now-stale readable copy,
    which the quiescence sweep reports as a SWMR violation."""
    cluster, page, addr = checked_cluster()
    cluster.node(0).table.entry(page).copy_set.discard(1)

    run_task(cluster, cluster.node(0).mem.write_i64(addr, 9), "w")
    with pytest.raises(InvariantViolation) as exc:
        cluster.oracle.check_quiescent()
    assert exc.value.rule in ("swmr", "stale-copy")


def test_oracle_flags_double_ownership():
    cluster, page, addr = checked_cluster()
    cluster.node(2).table.entry(page).is_owner = True

    with pytest.raises(InvariantViolation) as exc:
        cluster.oracle.check_quiescent()
    assert exc.value.rule == "owner-unique"


def test_oracle_flags_vanished_owner():
    cluster, page, addr = checked_cluster()
    cluster.node(0).table.entry(page).is_owner = False

    with pytest.raises(InvariantViolation) as exc:
        cluster.oracle.check_quiescent()
    assert exc.value.rule == "owner-missing"


def test_violation_report_carries_context():
    """A violation is a debugging artifact: it must carry the rule, the
    page, per-node entry snapshots and the page's recent event history."""
    cluster, page, addr = checked_cluster()
    cluster.node(0).table.entry(page).copy_set.add(2)

    violation = expect_violation(
        lambda: run_task(cluster, cluster.node(0).mem.write_i64(addr, 9), "w")
    )
    assert violation.page == page
    assert set(violation.state) == {0, 1, 2}
    assert violation.history  # recent svm.* events for the page
    text = violation.format()
    assert "invalidate-nonholder" in text
    assert "entry state" in text


def test_oracle_flags_probowner_cycle():
    """Two hints pointing at each other never reach the owner; the
    report names the first broken chain and where its walk stopped."""
    cluster, page, addr = checked_cluster()
    cluster.node(1).table.entry(page).prob_owner = 2
    cluster.node(2).table.entry(page).prob_owner = 1

    with pytest.raises(InvariantViolation) as exc:
        cluster.oracle.check_quiescent()
    assert exc.value.rule == "probowner-chain"
    assert exc.value.node == 1
    assert "chain from node 1 ends at 1, not the owner 0" in exc.value.detail


def test_chain_resolution_agrees_with_walking_every_chain():
    """``_all_chains_reach`` against the rule as stated (follow up to
    n+1 hops from every node), over every hop table of four nodes."""
    import itertools

    from repro.analysis.oracle import _all_chains_reach

    def walk_ok(hops, owner):
        for current in range(len(hops)):
            for _ in range(len(hops) + 1):
                if hops[current] is None:
                    break
                current = hops[current]
            if current != owner:
                return False
        return True

    n = 4
    for owner in range(n):
        for others in itertools.product(range(n), repeat=n - 1):
            hops = list(others)
            hops.insert(owner, None)
            assert _all_chains_reach(hops, owner) == walk_ok(hops, owner), hops
    # An "owner" that still points elsewhere, or a second chain end.
    assert not _all_chains_reach([1, 0, 0], 0)
    assert not _all_chains_reach([None, None, 0], 0)


def test_clean_chain_check_asks_each_node_for_one_hop():
    from repro.analysis.oracle import CoherenceOracle

    cluster, page, addr = checked_cluster()
    calls = []
    for node in cluster.nodes:
        hop = node.protocol.probable_owner_hop
        node.protocol.probable_owner_hop = (
            lambda p, hop=hop, nid=node.node_id: calls.append(nid) or hop(p)
        )
    # The oracle binds each node's hook once, when it is built: the spies
    # are seen by an oracle built after they are in place.
    CoherenceOracle(cluster)._check_probowner_chains(page, 0, owner_id=0)
    assert sorted(calls) == [0, 1, 2]
