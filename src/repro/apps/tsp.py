"""Traveling salesman by branch-and-bound with 1-tree lower bounds.

"The available branches, the graph, and the least upper bound are
stored in the shared virtual memory.  The program creates a process for
each processor that performs the branch-and-bound algorithm on a branch
obtained from the shared virtual memory.  These processes run in
parallel until the tour is found.  Each process is not much different
from the sequential one except it needs to access shared data
structures mutually exclusively."

Structure (matching that description):

- the initial process enumerates all depth-2 subtours into a shared
  *branch pool* (fixed-size records, LIFO, guarded by a shared binary
  lock);
- each worker repeatedly takes **one branch** from the pool and runs
  the ordinary sequential branch-and-bound over that branch's subtree
  with a private stack — shared-memory traffic is only the pool pop,
  reads of the incumbent (a read copy that stays cached until some
  improvement invalidates it — the natural DSM pattern), and the rare
  incumbent update under the lock;
- the lower bound for a partial tour is its cost plus the weight of a
  minimum spanning tree over {start, current} + the unvisited cities
  (the simplified 1-tree of the paper's reference [13]).

Because pruning depends on the racing incumbent, the search exhibits
the anomalies the paper cites [19]: node counts vary with the schedule
and speedups can exceed p.  The *result* (the optimal tour cost) is
schedule-independent and is checked against a Held-Karp exact solver.
"""

from __future__ import annotations

import struct
from typing import Any, Generator

import numpy as np

from repro.api.ivy import IvyProcessContext
from repro.apps.common import alloc_done_ec, spawn_workers, wait_done

__all__ = ["TspApp", "held_karp", "mst_weight"]

#: Branch record: cost f64 | depth i64 | visited mask i64 | path bytes.
MAX_CITIES = 16
ENTRY_BYTES = 8 + 8 + 8 + MAX_CITIES
#: Pool header: count i64 (plus padding for alignment).
POOL_HEADER = 16
#: Simple ops per Prim-step distance comparison.
PRIM_OPS = 4
#: Branches taken from the pool per critical section (two keeps the
#: best-first order sharp while halving pool-lock traffic).
BATCH = 2
#: Re-read the shared incumbent every this many expanded nodes (the read
#: is a cached local access except right after an improvement, so it is
#: nearly free — checking every node keeps pruning sharp).
BEST_REFRESH = 1


def held_karp(w: Any) -> float:
    """Exact TSP by Held-Karp dynamic programming (golden reference).

    Pure Python over nested lists: the dp loop is scalar indexing, where
    float machinery beats numpy's per-element dispatch by an order of
    magnitude.  Update order matches the original vectorised version, so
    the result is bit-for-bit identical.
    """
    if not isinstance(w, list):
        w = w.tolist()
    n = len(w)
    full = 1 << (n - 1)
    inf = float("inf")
    dp = [[inf] * (n - 1) for _ in range(full)]
    for j in range(n - 1):
        dp[1 << j][j] = w[0][j + 1]
    for mask in range(1, full):
        row = dp[mask]
        for j in range(n - 1):
            base = row[j]
            if not mask & (1 << j) or base == inf:
                continue
            wrow = w[j + 1]
            for k in range(n - 1):
                if mask & (1 << k):
                    continue
                nxt = dp[mask | (1 << k)]
                cand = base + wrow[k + 1]
                if cand < nxt[k]:
                    nxt[k] = cand
    best = inf
    last = dp[full - 1]
    for j in range(n - 1):
        cand = last[j] + w[j + 1][0]
        if cand < best:
            best = cand
    return best


def mst_weight(w: Any, nodes: list[int]) -> float:
    """Prim's MST weight over the induced subgraph.

    ``w`` is the full weight matrix, preferably as nested Python lists
    (``ndarray.tolist()`` once per workload, not per call): this is the
    branch-and-bound inner loop, and at r <= 16 plain floats beat the
    numpy masked-argmin formulation ~20x.  The arithmetic — first-min
    selection, accumulation order, elementwise relaxation — mirrors the
    vectorised version operation for operation, so every bound (and
    therefore every pruning decision and the event schedule downstream)
    is bit-for-bit unchanged.

    The result depends on the *set* ``nodes`` only, as long as
    ``nodes[0]`` is the same city and no two distinct edges of ``w``
    weigh the same: Prim grows from ``nodes[0]`` and picks by strict
    first-min, so the order of the other cities decides exact ties and
    nothing else (``w[i][j] == w[j][i]`` never ties with itself — one
    end is in the tree, the other is not), the cities join in the same
    sequence and the floats are summed in the same order.  That is why
    the search forms one tree per expanded node, over ``[0] + rest``,
    for all its children: child ``nxt``'s own list, ``[0, nxt] + rest
    without nxt``, is the same set.  ``TspApp``'s seeded real-valued
    instances are tie-free, and ``tests/apps/test_tsp_bound.py`` pins
    ``==`` on them.  With tied edges the two orders could differ in the
    last bits; either is a valid bound.
    """
    r = len(nodes)
    if r <= 1:
        return 0.0
    if not isinstance(w, list):
        w = w.tolist()
    rows = [w[i] for i in nodes]
    row0 = rows[0]
    dist = [row0[i] for i in nodes]
    in_tree = [False] * r
    in_tree[0] = True
    total = 0.0
    inf = float("inf")
    rng = range(r)
    for _ in range(r - 1):
        best = inf
        j = -1
        for k in rng:
            if not in_tree[k] and dist[k] < best:
                best = dist[k]
                j = k
        total += best
        in_tree[j] = True
        wrow = rows[j]
        for k in rng:
            v = wrow[nodes[k]]
            if v < dist[k]:
                dist[k] = v
    return total


class TspApp:
    """One configured instance of the branch-and-bound TSP."""

    name = "tsp"

    def __init__(
        self, nprocs: int, ncities: int = 10, seed: int = 21, metric: str = "random"
    ) -> None:
        if not 4 <= ncities <= MAX_CITIES:
            raise ValueError(f"ncities must be in [4, {MAX_CITIES}]")
        self.nprocs = nprocs
        self.n = ncities
        rng = np.random.default_rng(seed)
        if metric == "euclidean":
            # Road-network-like instance: triangle inequality makes the
            # 1-tree bound sharp and the search shallow.
            pts = rng.uniform(0.0, 100.0, size=(ncities, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            self.w = np.sqrt((diff**2).sum(axis=2))
        elif metric == "random":
            # "The cost of a tour is the sum of the weights of the edges"
            # — a general weighted graph; bounds are weaker, the search
            # deeper, which is the regime where parallel search pays.
            raw = rng.uniform(1.0, 100.0, size=(ncities, ncities))
            self.w = (raw + raw.T) / 2.0
        else:
            raise ValueError(f"unknown metric {metric!r}")
        np.fill_diagonal(self.w, 0.0)

    _golden_cache: dict = {}

    def golden(self) -> float:
        key = (self.n, self.w.tobytes())
        if key not in TspApp._golden_cache:
            TspApp._golden_cache[key] = held_karp(self.w)
        return TspApp._golden_cache[key]

    def nearest_neighbour_tour(self) -> float:
        """Greedy tour cost — the initial upper bound every run starts
        from (sequential and parallel alike, so the comparison is fair)."""
        unvisited = set(range(1, self.n))
        cur, total = 0, 0.0
        while unvisited:
            nxt = min(unvisited, key=lambda c: self.w[cur, c])
            total += float(self.w[cur, nxt])
            unvisited.remove(nxt)
            cur = nxt
        return total + float(self.w[cur, 0])

    def _seed_branches(self) -> list[bytes]:
        """All depth-2 subtours 0 -> b -> c, the units of parallel work,
        ordered so the most promising (smallest lower bound) is popped
        first from the LIFO pool."""
        scored = []
        wl = self.w.tolist()
        for b in range(1, self.n):
            # Every c spans the same set, all cities but b: one tree per b.
            tree = mst_weight(wl, [x for x in range(self.n) if x != b])
            for c in range(1, self.n):
                if c == b:
                    continue
                cost = wl[0][b] + wl[b][c]
                visited = 1 | (1 << b) | (1 << c)
                scored.append(
                    (cost + tree, _pack_entry(cost, 3, visited, bytes([0, b, c])))
                )
        scored.sort(key=lambda t: -t[0])  # LIFO pops from the end
        return [entry for _, entry in scored]

    # ------------------------------------------------------------------

    def main(self, ctx: IvyProcessContext) -> Generator[Any, Any, float]:
        n = self.n
        w_addr = yield from ctx.malloc(8 * n * n)
        yield from ctx.write_array(w_addr, self.w)
        best_addr = yield from ctx.malloc(8)
        # Workers read the incumbent without the lock (a stale bound only
        # weakens pruning, per the paper); declare it so checked runs can
        # allowlist the race via CheckerConfig.known_races.
        ctx.declare_benign_race("tsp.best-bound", best_addr, 8)
        # Start from the nearest-neighbour tour, computed here like any
        # sequential branch-and-bound would.
        yield ctx.flops(self.n * self.n)
        yield from ctx.write_f64(best_addr, self.nearest_neighbour_tour())
        lock_addr = yield from ctx.malloc(1024)
        yield from ctx.lock_init(lock_addr)
        branches = self._seed_branches()
        pool_addr = yield from ctx.malloc(POOL_HEADER + ENTRY_BYTES * len(branches))
        yield ctx.ops(20 * len(branches))
        yield ctx.flops(len(branches) * (self.n - 2) ** 2)  # seeding bounds
        yield from ctx.write_array(
            pool_addr, np.array([len(branches), 0], dtype=np.int64).view(np.uint8)
        )
        yield from ctx.write_bytes(pool_addr + POOL_HEADER, b"".join(branches))
        done = yield from alloc_done_ec(ctx)
        yield from spawn_workers(
            ctx, self._worker, self.nprocs, w_addr, best_addr, lock_addr, pool_addr,
            done_ec=done,
        )
        yield from wait_done(ctx, done, self.nprocs)
        best = yield from ctx.read_f64(best_addr)
        return best

    # ------------------------------------------------------------------

    def _worker(
        self,
        ctx: IvyProcessContext,
        k: int,
        w_addr: int,
        best_addr: int,
        lock_addr: int,
        pool_addr: int,
    ) -> Generator[Any, Any, None]:
        n = self.n
        w_flat = yield from ctx.mem.fetch_array(w_addr, np.float64, n * n)
        # Nested lists, converted once: the search loop below is all
        # scalar indexing, which plain floats do ~20x faster than numpy.
        w = w_flat.reshape(n, n).tolist()
        while True:
            # --- take a batch of branches from the shared pool ----------
            yield from ctx.lock_acquire(lock_addr)
            count = yield from ctx.read_i64(pool_addr)
            if count == 0:
                yield from ctx.lock_release(lock_addr)
                return
            take = min(BATCH, count)
            raw = yield from ctx.read_bytes(
                pool_addr + POOL_HEADER + ENTRY_BYTES * (count - take),
                ENTRY_BYTES * take,
            )
            yield from ctx.write_i64(pool_addr, count - take)
            yield from ctx.lock_release(lock_addr)
            branches = [
                _unpack_entry(raw[ENTRY_BYTES * i :][: ENTRY_BYTES])
                for i in reversed(range(take))  # best bound first
            ]

            # --- sequential branch-and-bound over these subtrees --------
            best_seen = yield from ctx.read_f64(best_addr)
            stack = branches
            since_refresh = 0
            while stack:
                cost, depth, visited, path = stack.pop()
                since_refresh += 1
                if since_refresh >= BEST_REFRESH:
                    since_refresh = 0
                    best_seen = yield from ctx.read_f64(best_addr)
                if cost >= best_seen:
                    continue  # thrown away, per the paper
                last = path[depth - 1]
                wlast = w[last]
                work_ops = 0
                work_flops = 0
                new_depth = depth + 1
                rest = [c for c in range(n) if not visited & (1 << c)]
                if new_depth < n:
                    # Every child spans the same set, {0} + rest: one tree
                    # per expanded node (see mst_weight).  The simulated
                    # program is still charged one Prim run per child.
                    tree = mst_weight(w, [0] + rest)
                    prim_flops = (len(rest) + 1) ** 2
                for nxt in rest:
                    step_cost = cost + wlast[nxt]
                    if new_depth == n:
                        total = step_cost + w[nxt][0]
                        work_flops += 2
                        if total < best_seen:
                            best_seen = yield from self._offer_best(
                                ctx, lock_addr, best_addr, total
                            )
                        continue
                    work_ops += prim_flops * PRIM_OPS
                    work_flops += prim_flops
                    bound = step_cost + tree
                    if bound < best_seen:
                        stack.append(
                            (step_cost, new_depth, visited | (1 << nxt), path + [nxt])
                        )
                ctx.node.counters.inc("tsp_nodes_expanded")
                yield ctx.ops(work_ops)
                yield ctx.flops(work_flops)

    def _offer_best(
        self, ctx: IvyProcessContext, lock_addr: int, best_addr: int, total: float
    ) -> Generator[Any, Any, float]:
        """Install a better tour cost (mutually exclusive); returns the
        freshest incumbent."""
        yield from ctx.lock_acquire(lock_addr)
        current = yield from ctx.read_f64(best_addr)
        if total < current:
            yield from ctx.write_f64(best_addr, total)
            current = total
            ctx.node.counters.inc("tsp_incumbent_updates")
        yield from ctx.lock_release(lock_addr)
        return current

    # ------------------------------------------------------------------

    def check(self, result: float) -> None:
        expected = self.golden()
        if not np.isclose(result, expected, rtol=1e-9):
            raise AssertionError(f"tsp mismatch: {result} vs optimal {expected}")


#: cost f64 | depth i64 | visited i64, little-endian — byte-identical to
#: the numpy tobytes/frombuffer round-trip it replaces.
_ENTRY_HEAD = struct.Struct("<dqq")


def _pack_entry(cost: float, depth: int, visited: int, path: bytes) -> bytes:
    return _ENTRY_HEAD.pack(cost, depth, visited) + path.ljust(MAX_CITIES, b"\x00")


def _unpack_entry(raw: np.ndarray) -> tuple[float, int, int, list[int]]:
    cost, depth, visited = _ENTRY_HEAD.unpack_from(raw)
    path = list(bytes(raw[24 : 24 + depth]))
    return cost, depth, visited, path
