"""Quickstart: a parallel sum over IVY's shared virtual memory.

Boots a four-workstation cluster, puts a vector in the shared address
space, spawns one lightweight process per processor to sum a slice
(each writes its partial into a shared slot), and synchronises with an
eventcount — the complete IVY programming model in ~40 lines of
application code.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import ClusterConfig, Ivy
from repro.sync.eventcount import EC_RECORD_BYTES

N = 40_000
NODES = 4


def worker(ctx, vec_addr, out_addr, k, lo, hi, done_ec):
    """Sum my slice; pages fault over from node 0 on first touch."""
    values = yield from ctx.mem.fetch_array(vec_addr + 8 * lo, np.float64, hi - lo)
    yield ctx.flops(hi - lo)
    yield from ctx.write_f64(out_addr + 8 * k, float(values.sum()))
    yield from ctx.ec_advance(done_ec)


def main(ctx):
    # Shared allocations: the vector, the partial-sum slots, an eventcount.
    vec_addr = yield from ctx.malloc(8 * N)
    out_addr = yield from ctx.malloc(8 * NODES)
    done_ec = yield from ctx.malloc(EC_RECORD_BYTES)
    yield from ctx.ec_init(done_ec)

    data = np.linspace(0.0, 1.0, N)
    yield from ctx.write_array(vec_addr, data)

    chunk = N // NODES
    for k in range(NODES):
        lo, hi = k * chunk, (k + 1) * chunk if k < NODES - 1 else N
        yield from ctx.spawn(worker, vec_addr, out_addr, k, lo, hi, done_ec, on=k)

    yield from ctx.ec_wait(done_ec, NODES)  # Wait(ec, value): block till all done
    partials = yield from ctx.read_array(out_addr, np.float64, NODES)
    return float(partials.sum()), data.sum()


if __name__ == "__main__":
    ivy = Ivy(ClusterConfig(nodes=NODES))
    (parallel, sequential) = ivy.run(main)
    total = ivy.cluster.total_counters()
    print(f"parallel sum        : {parallel:.6f}")
    print(f"numpy (golden)      : {sequential:.6f}")
    print(f"match               : {abs(parallel - sequential) < 1e-9}")
    print(f"simulated time      : {ivy.time_ns / 1e6:.2f} ms")
    print(f"page faults serviced: {total['read_faults']} reads, {total['write_faults']} writes")
    print(f"ring messages       : {ivy.cluster.fabric.stats.messages}")
