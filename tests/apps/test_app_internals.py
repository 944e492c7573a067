"""Unit/property tests for application building blocks: partitioning,
record codecs, bounds, and golden references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.common import partition
from repro.apps.pde3d import Pde3dApp, stencil_sweep
from repro.apps.sort import RECORD_BYTES, MergeSplitSortApp, _dtype
from repro.apps.tsp import (
    TspApp,
    _pack_entry,
    _unpack_entry,
    held_karp,
    mst_weight,
)
from repro.exps.fig6 import ideal_speedup


@settings(max_examples=200)
@given(
    n=st.integers(min_value=0, max_value=1000),
    parts=st.integers(min_value=1, max_value=16),
)
def test_partition_covers_range_disjointly(n, parts):
    slices = partition(n, parts)
    assert len(slices) == parts
    cursor = 0
    for lo, hi in slices:
        assert lo == cursor
        assert hi >= lo
        cursor = hi
    assert cursor == n
    sizes = [hi - lo for lo, hi in slices]
    assert max(sizes) - min(sizes) <= 1  # near-equal


def test_partition_rejects_zero_parts():
    with pytest.raises(ValueError):
        partition(10, 0)


def test_stencil_sweep_zero_boundary():
    m = 5
    b = np.zeros((m, m, m))
    u = np.ones((m, m, m))
    out = stencil_sweep(u, b)
    # An interior point has 6 neighbours of 1.0 -> 1.0; a corner has 3.
    assert out[2, 2, 2] == pytest.approx(1.0)
    assert out[0, 0, 0] == pytest.approx(0.5)


def test_stencil_sweep_in_place_is_bit_identical_to_out_of_place():
    rng = np.random.default_rng(3)
    u, b = rng.uniform(-1, 1, (2, 6, 7, 5))
    acc = b.copy()
    acc[1:] += u[:-1]
    acc[:-1] += u[1:]
    acc[:, 1:] += u[:, :-1]
    acc[:, :-1] += u[:, 1:]
    acc[:, :, 1:] += u[:, :, :-1]
    acc[:, :, :-1] += u[:, :, 1:]
    b_before = b.copy()
    assert np.array_equal(stencil_sweep(u, b), acc / 6.0)
    assert np.array_equal(b, b_before)  # the right-hand side is not touched


def test_pde3d_check_rejects_a_result_missing_a_plane():
    app = Pde3dApp(1, m=4, iters=1)
    with pytest.raises(AssertionError, match=r"\(3, 4, 4\).*\(4, 4, 4\)"):
        app.check(app.golden()[:-1])
    app.check(app.golden())
    # Every plane is compared, the last one included.
    wrong = app.golden()
    wrong[-1, -1, -1] += 0.5
    with pytest.raises(AssertionError, match="max abs err 0.5"):
        app.check(wrong)


@settings(max_examples=100)
@given(
    cost=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    depth=st.integers(min_value=1, max_value=16),
    visited=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_tsp_entry_codec_roundtrip(cost, depth, visited):
    path = list(range(depth))
    raw = _pack_entry(cost, depth, visited, bytes(path))
    assert len(raw) == 8 + 8 + 8 + 16
    out_cost, out_depth, out_visited, out_path = _unpack_entry(
        np.frombuffer(raw, dtype=np.uint8)
    )
    assert out_cost == cost
    assert out_depth == depth
    assert out_visited == visited
    assert out_path == path


def test_mst_weight_known_graph():
    w = np.array(
        [
            [0.0, 1.0, 4.0],
            [1.0, 0.0, 2.0],
            [4.0, 2.0, 0.0],
        ]
    )
    assert mst_weight(w, [0, 1, 2]) == pytest.approx(3.0)  # edges 1 + 2
    assert mst_weight(w, [0]) == 0.0
    assert mst_weight(w, []) == 0.0


def test_tsp_bound_is_admissible_everywhere():
    """The 1-tree (MST) bound must never exceed the true optimal
    completion — otherwise branch-and-bound could prune the optimum."""
    app = TspApp(1, ncities=7)
    optimal = app.golden()
    # Root bound: MST over all cities <= optimal tour.
    assert mst_weight(app.w, list(range(7))) <= optimal + 1e-9


def test_held_karp_small_instances():
    # Triangle: the only tour is the triangle itself.
    w = np.array([[0, 2, 3], [2, 0, 4], [3, 4, 0]], dtype=float)
    assert held_karp(w) == pytest.approx(9.0)
    # Square with cheap perimeter.
    w = np.full((4, 4), 10.0)
    np.fill_diagonal(w, 0.0)
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]:
        w[a, b] = w[b, a] = 1.0
    assert held_karp(w) == pytest.approx(4.0)


def test_sort_record_dtype_is_64_bytes():
    assert _dtype.itemsize == RECORD_BYTES
    app = MergeSplitSortApp(2, nrecords=64)
    assert app.records.nbytes == 64 * RECORD_BYTES
    # Keys survive the uint8 view round-trip used by the SVM path.
    raw = app.records.view(np.uint8)
    back = np.ascontiguousarray(raw).view(_dtype)
    assert np.array_equal(back["key"], app.records["key"])


def test_sort_rounds_records_up_to_block_multiple():
    app = MergeSplitSortApp(3, nrecords=100)
    assert app.nrecords % (2 * 3) == 0
    assert app.nrecords >= 100


def test_fig6_ideal_speedup_is_sublinear_and_monotone_in_n():
    for p in (2, 4, 8):
        assert 1.0 < ideal_speedup(4096, p) < p
    # More records help (the internal-sort log factor grows).
    assert ideal_speedup(65536, 8) > ideal_speedup(1024, 8)
