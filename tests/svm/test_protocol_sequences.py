"""Span-based protocol tests: assert the *message sequences* each
manager algorithm produces for a fault, not just the end state.

These encode Li & Hudak's cost analysis as executable documentation:
how many hops a fault takes under each algorithm, and who talks to whom.
Every hop is a span: an ``rpc:<op>`` span on the requester (``dst`` for
a request, ``scheme`` for a broadcast, ``fanout`` for a multicast), a
``serve:<op>`` span on each server, and a forward is a ``serve:<op>``
span whose parent is the ``serve:<op>`` span of another node.
"""

from repro.api.cluster import Cluster
from repro.config import ClusterConfig

from tests.svm.conftest import run_task

PAGE = 256


def traced_cluster(nodes=4, algorithm="dynamic"):
    config = ClusterConfig(nodes=nodes, obs=True).with_svm(
        algorithm=algorithm, page_size=PAGE, shared_size=PAGE * 1024
    )
    cluster = Cluster(config)
    return cluster, cluster.obs.spans


def rpcs(spans, op, kind):
    """The ``op`` round-trips of one kind: ``kind`` is the attr that
    marks it (``dst``, ``scheme`` or ``fanout``)."""
    return [s for s in spans.select(f"rpc:{op}") if kind in s.attrs]


def requests(spans, op):
    """``(src, dst)`` of every point-to-point ``op`` request, in order."""
    return [(s.node, s.attrs["dst"]) for s in rpcs(spans, op, "dst")]


def forwards(spans, op=None):
    """``(forwarder, next hop)`` of every forwarded request (any op when
    ``op`` is None), in order."""
    hops = []
    for s in spans:
        parent = spans.get(s.parent)
        if (
            s.name.startswith("serve:")
            and (op is None or s.name == f"serve:{op}")
            and parent is not None
            and parent.name == s.name
            and parent.node != s.node
        ):
            hops.append((parent.node, s.node))
    return hops


def addr(cluster):
    return cluster.config.svm.shared_base


def prime_owner(cluster, node, value=1):
    """Give `node` ownership of page 0 with real content."""

    def w():
        yield from cluster.node(node).mem.write_i64(addr(cluster), value)

    run_task(cluster, w(), f"prime{node}")


def test_centralized_read_fault_is_request_forward_reply():
    cluster, spans = traced_cluster(algorithm="centralized")
    prime_owner(cluster, 1)  # owner 1, manager 0
    spans.spans.clear()

    def r():
        v = yield from cluster.node(2).mem.read_i64(addr(cluster))
        return v

    assert run_task(cluster, r(), "r") == 1
    # Faulting node 2 asks manager 0; manager forwards to owner 1.
    assert requests(spans, "svm.read") == [(2, 0)]
    assert forwards(spans, "svm.read") == [(0, 1)]


def test_centralized_fault_when_manager_owns_needs_no_forward():
    cluster, spans = traced_cluster(algorithm="centralized")
    # Page is owned by the manager (node 0) from initialisation.
    prime_owner(cluster, 0)
    spans.spans.clear()

    def r():
        v = yield from cluster.node(3).mem.read_i64(addr(cluster))
        return v

    assert run_task(cluster, r(), "r") == 1
    assert forwards(spans, "svm.read") == []


def test_fixed_manager_is_per_page():
    cluster, spans = traced_cluster(algorithm="fixed")
    page1_addr = addr(cluster) + PAGE  # page 1 -> manager H(1) = 1

    def w():
        yield from cluster.node(2).mem.write_i64(page1_addr, 9)

    run_task(cluster, w(), "w")
    # The write fault went to page 1's manager, node 1 (not node 0).
    assert (2, 1) in requests(spans, "svm.write")


def test_dynamic_chain_shortens_after_first_chase():
    cluster, spans = traced_cluster(algorithm="dynamic")
    # Ownership walks 0 -> 1 -> 2 -> 3.  Node 1 relinquished to 2 long
    # ago, so its hint is stale ("2"); a read from node 1 must chase
    # 1 -> 2 -> 3.  (Node 0's hint is *fresh* despite never reading: the
    # later transfers' requests were forwarded through it, and
    # forwarding updates the hint — the algorithm learning en passant.)
    for node in (1, 2, 3):
        prime_owner(cluster, node, value=node)
    page = cluster.layout.page_of(addr(cluster))
    assert cluster.node(1).table.entry(page).prob_owner == 2  # stale
    spans.spans.clear()

    def first_read():
        v = yield from cluster.node(1).mem.read_i64(addr(cluster))
        return v

    assert run_task(cluster, first_read(), "r1") == 3
    assert forwards(spans, "svm.read") == [(2, 3)]

    # The chase taught node 1 the true owner: a later re-fault (after
    # its copy is invalidated by a new write) goes direct, no forwards.
    def rewrite():
        yield from cluster.node(3).mem.write_i64(addr(cluster), 7)

    run_task(cluster, rewrite(), "w")
    spans.spans.clear()

    def second_read():
        v = yield from cluster.node(1).mem.read_i64(addr(cluster))
        return v

    assert run_task(cluster, second_read(), "r2") == 7
    assert forwards(spans, "svm.read") == []


def test_write_fault_invalidates_each_copy_holder_once():
    cluster, spans = traced_cluster(algorithm="dynamic")
    prime_owner(cluster, 0)

    def readers():
        for n in (1, 2):
            yield from cluster.node(n).mem.read_i64(addr(cluster))

    run_task(cluster, readers(), "readers")
    spans.spans.clear()

    def writer():
        yield from cluster.node(3).mem.write_i64(addr(cluster), 5)

    run_task(cluster, writer(), "writer")
    invs = rpcs(spans, "svm.inv", "fanout")
    assert len(invs) == 1
    assert invs[0].node == 3
    served = [c.node for c in spans.children(invs[0]) if c.name == "serve:svm.inv"]
    assert tuple(sorted(served)) == (1, 2)
    # One ring multicast carried it, not one message per holder.
    assert invs[0].attrs["fanout"] == 2 and requests(spans, "svm.inv") == []


def test_broadcast_algorithm_emits_locate_broadcasts():
    cluster, spans = traced_cluster(algorithm="broadcast")
    prime_owner(cluster, 1)
    spans.spans.clear()

    def r():
        v = yield from cluster.node(2).mem.read_i64(addr(cluster))
        return v

    assert run_task(cluster, r(), "r") == 1
    assert len(rpcs(spans, "svm.locate", "scheme")) == 1
    # The transfer itself is point-to-point to the located owner.
    assert requests(spans, "svm.read") == [(2, 1)]
    assert forwards(spans) == []
