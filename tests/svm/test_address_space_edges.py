"""Edge-case tests for the shared address space API."""

import numpy as np
import pytest

from tests.svm.conftest import base, make_cluster, run_task


def test_zero_length_operations_are_noops():
    cluster = make_cluster(nodes=2)
    addr = base(cluster)

    def job():
        out = yield from cluster.node(0).mem.read_bytes(addr, 0)
        yield from cluster.node(0).mem.write_bytes(addr, b"")
        arr = yield from cluster.node(0).mem.read_array(addr, np.float64, 0)
        return len(out), len(arr)

    assert run_task(cluster, job(), "zero") == (0, 0)


def test_scalar_straddling_a_page_boundary():
    cluster = make_cluster(nodes=2, page_size=256)
    addr = base(cluster) + 252  # 4 bytes in page 0, 4 in page 1

    def writer():
        yield from cluster.node(0).mem.write_f64(addr, 3.5)

    def reader():
        v = yield from cluster.node(1).mem.read_f64(addr)
        return v

    run_task(cluster, writer(), "w")
    assert run_task(cluster, reader(), "r") == 3.5
    # Both pages moved.
    assert cluster.node(1).counters["read_faults"] == 2


def test_out_of_range_access_rejected():
    cluster = make_cluster(nodes=1)
    mem = cluster.node(0).mem
    end = cluster.config.svm.shared_base + cluster.config.svm.shared_size

    def bad_read():
        yield from mem.read_bytes(end - 4, 8)

    with pytest.raises(Exception, match="outside shared space"):
        run_task(cluster, bad_read(), "bad")

    def below_base():
        yield from mem.read_i64(cluster.config.svm.shared_base - 8)

    with pytest.raises(Exception, match="outside shared space"):
        run_task(cluster, below_base(), "bad2")


def test_atomic_update_rejects_multi_page_ranges():
    cluster = make_cluster(nodes=1, page_size=256)
    mem = cluster.node(0).mem
    addr = base(cluster) + 250

    def job():
        yield from mem.atomic_update(addr, 16, lambda v: None)

    with pytest.raises(Exception, match="spans"):
        run_task(cluster, job(), "atomic")


def test_write_bytes_accepts_bytes_bytearray_and_arrays():
    cluster = make_cluster(nodes=1)
    mem = cluster.node(0).mem
    addr = base(cluster)

    def job():
        yield from mem.write_bytes(addr, b"\x01\x02\x03")
        yield from mem.write_bytes(addr + 3, bytearray([4, 5]))
        yield from mem.write_bytes(addr + 5, np.array([6, 7], dtype=np.uint8))
        out = yield from mem.read_bytes(addr, 7)
        return out.tolist()

    assert run_task(cluster, job(), "kinds") == [1, 2, 3, 4, 5, 6, 7]


def test_typed_roundtrip_for_various_dtypes():
    cluster = make_cluster(nodes=2)
    addr = base(cluster)
    cases = [
        np.arange(10, dtype=np.int32),
        np.arange(5, dtype=np.float32) * 1.5,
        np.array([2**62, -(2**62)], dtype=np.int64),
        np.arange(7, dtype=np.uint16),
    ]

    def job():
        offset = 0
        results = []
        for arr in cases:
            yield from cluster.node(0).mem.write_array(addr + offset, arr)
            got = yield from cluster.node(1).mem.read_array(
                addr + offset, arr.dtype, len(arr)
            )
            results.append(np.array_equal(got, arr))
            offset += arr.nbytes + 16
        return results

    assert all(run_task(cluster, job(), "dtypes"))


def test_app_level_determinism():
    """Two identical full-stack runs produce bit-identical simulated
    times and counters (the repository's determinism contract)."""
    from repro.apps.jacobi import JacobiApp
    from repro.exps.parallel import run_app

    runs = [run_app(lambda p: JacobiApp(p, n=64, iters=3), 3) for _ in range(2)]
    assert runs[0].time_ns == runs[1].time_ns
    assert runs[0].counters.snapshot() == runs[1].counters.snapshot()
    assert runs[0].fabric_stats == runs[1].fabric_stats
