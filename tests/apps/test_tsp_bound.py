"""TSP's lower bound is formed once per expanded node, not once per child.

Two things keep that honest.  The hoist is only bit-for-bit safe because
``mst_weight`` over ``[0] + rest`` equals ``mst_weight`` over the old
per-child order ``[0, nxt] + rest without nxt`` *exactly* (see the
``mst_weight`` docstring) — pinned here with ``==`` on floats.  And the
saving is host work the simulated clock never sees, so nothing else in
tier-1 would notice a per-child Prim run coming back — hence the
call-count gate.
"""

import random

import pytest

import repro.apps.tsp as tsp
from repro.api.ivy import IvyProcessContext
from repro.apps.tsp import MAX_CITIES, TspApp, mst_weight
from repro.exps.parallel import run_app


def masks(n, rng, count=24):
    """``visited`` masks as the search forms them: city 0 always in,
    at least one city left.  Every depth-1 mask is included — those are
    the sets ``_seed_branches`` bounds."""
    out = [1 | (1 << b) for b in range(1, n)]
    for _ in range(count):
        mask = 1 | (rng.getrandbits(n) & ~1)
        if mask != (1 << n) - 1:
            out.append(mask)
    return out


def assert_order_independent(app, rng):
    n = app.n
    w = app.w.tolist()
    for visited in masks(n, rng):
        rest = [c for c in range(n) if not visited & (1 << c)]
        tree = mst_weight(w, [0] + rest)
        for nxt in rest:
            per_child = mst_weight(w, [0, nxt] + [c for c in rest if c != nxt])
            assert tree == per_child, (n, bin(visited), nxt)


@pytest.mark.parametrize("metric", ["random", "euclidean"])
@pytest.mark.parametrize("n", range(5, MAX_CITIES + 1))
def test_one_tree_per_node_equals_one_tree_per_child_exactly(metric, n):
    rng = random.Random(n)
    for seed in (21, 33, 1988 + n):
        assert_order_independent(TspApp(1, ncities=n, seed=seed, metric=metric), rng)


def test_the_bench_instance_is_tie_free_and_order_independent():
    """``paper_ring_p8`` runs this instance; its fingerprint is only
    unchanged if every bound is."""
    app = TspApp(8, ncities=13, seed=33)
    edges = [app.w[i, j] for i in range(13) for j in range(i + 1, 13)]
    assert len(set(edges)) == len(edges)  # the premise of the argument
    assert_order_independent(app, random.Random(33))


def test_tied_edges_are_where_node_order_can_show():
    """Why the argument needs tie-free weights: with w[0][1] == w[0][2]
    the list order decides which city joins first, the same three edges
    are summed in another order, and float addition does not associate."""
    w = [
        [0.0, 0.6, 0.6, 0.9],
        [0.6, 0.0, 0.8, 0.1],
        [0.6, 0.8, 0.0, 0.7],
        [0.9, 0.1, 0.7, 0.0],
    ]
    assert mst_weight(w, [0, 1, 2, 3]) == (0.6 + 0.1) + 0.6
    assert mst_weight(w, [0, 2, 1, 3]) == (0.6 + 0.6) + 0.1
    assert (0.6 + 0.1) + 0.6 != (0.6 + 0.6) + 0.1


def test_prim_runs_once_per_expanded_node(monkeypatch):
    """Deterministic proxy for the host-time saving (as the victim-pick
    gate in tests/machine/test_memory.py): count ``mst_weight`` calls."""
    n = 8
    calls = []
    real = tsp.mst_weight
    monkeypatch.setattr(
        tsp, "mst_weight", lambda w, nodes: calls.append(len(nodes)) or real(w, nodes)
    )
    # Only the app charges `ctx.ops`: once for seeding, then once per
    # expanded node — and with 0 ops exactly when every child is a
    # complete tour, i.e. no bound was needed.
    charges = []
    real_ops = IvyProcessContext.ops
    monkeypatch.setattr(
        IvyProcessContext, "ops", lambda self, k: charges.append(k) or real_ops(self, k)
    )

    result = run_app(lambda p: TspApp(p, ncities=n), 2)

    expanded = result.counters["tsp_nodes_expanded"]
    assert len(charges) == 1 + expanded
    bounded = sum(1 for k in charges[1:] if k)
    assert 0 < bounded < expanded
    seed_calls = n - 1  # one per second city b
    assert len(calls) == seed_calls + bounded
    assert len(calls) <= expanded + seed_calls
    # The simulated program is still charged one Prim run per child: a
    # tree over r cities was formed for a node with r - 1 children.
    assert sum(charges[1:]) == sum(
        (r - 1) * r * r * tsp.PRIM_OPS for r in calls[seed_calls:]
    )
