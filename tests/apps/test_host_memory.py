"""Host-memory gate: the simulator holds what the simulated machine holds.

A deterministic stand-in for ``peak_rss_mb`` on ``scale_switched_n256``:
the ``tracemalloc`` peak of one capacity-bound pde3d run plus its result
check, at a quarter of that workload's node count.  What used to set the
peak was host-side scratch, not simulated state: every suspended
``Pde3dApp._worker`` kept its fetched, padded and swept grids alive
across ``store_array`` and the barrier, every page lock carried an empty
waiter deque, and ``check`` compared whole grids at once.  After that,
every read copy was a private frame of its own, a byte-for-byte
duplicate of its owner's.

Measured on this configuration (CPython 3.11, numpy 2.4):

- 22.3 MiB when workers held their sweep buffers, locks owned a queue
  each and ``check`` compared whole grids;
- 14.5 MiB with workers holding only the slab they store, lazy lock
  queues and a plane-by-plane check;
- 8.5 MiB with read copies sharing their owner's read-only frame.

The bound sits between the last two, so the gate fails if any of that
comes back.  ``time_ns`` and the event count are pinned too: a memory fix
that moved the schedule would pass the bound for the wrong reason.
"""

import tracemalloc

from repro.api.ivy import Ivy
from repro.apps.pde3d import Pde3dApp
from repro.config import SECOND, ClusterConfig

NODES = 64
M = 48
PAGE = 8192
#: Between the last two measurements above (14.5 and 8.5 MiB).
PEAK_BOUND_MIB = 11.5


def test_pde3d_capacity_run_peak_host_memory():
    # 1.8x one solution vector's pages per node: three vectors do not fit.
    frames = int(1.8 * ((M**3 * 8 + PAGE - 1) // PAGE))
    config = (
        ClusterConfig(seed=7, nodes=NODES)
        .with_svm(page_size=PAGE)
        .with_fabric(backend="switched")
        .replace(retransmit_timeout=30 * SECOND)
        .with_memory(frames=frames, replacement="random")
    )
    app = Pde3dApp(NODES, m=M, iters=2, seed=7)
    ivy = Ivy(config)
    tracemalloc.start()
    try:
        app.check(ivy.run(app.main))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ivy.time_ns, ivy.cluster.sim.events_executed) == (5_233_296_500, 25_067)
    assert peak / 2**20 < PEAK_BOUND_MIB, f"traced peak {peak / 2**20:.1f} MiB"
