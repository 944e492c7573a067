"""Unit tests for the physical frame pool."""

import sys

import numpy as np
import pytest

from repro.machine.memory import FramePressure, PhysicalMemory


def test_install_and_read_back():
    mem = PhysicalMemory(page_size=64, frames=4)
    data = np.arange(64, dtype=np.uint8)
    mem.install(5, data)
    assert 5 in mem
    assert np.array_equal(mem.data(5), data)


def test_install_zero_fills_by_default():
    mem = PhysicalMemory(page_size=32, frames=None)
    frame = mem.install(0)
    assert np.all(frame == 0)


def test_capacity_enforced():
    mem = PhysicalMemory(page_size=16, frames=2)
    mem.install(0)
    mem.install(1)
    assert mem.full
    with pytest.raises(FramePressure):
        mem.install(2)
    # Reinstall of a resident page is fine even when full.
    mem.install(1, np.ones(16, dtype=np.uint8))


def test_lru_victim_is_least_recently_used():
    mem = PhysicalMemory(page_size=16, frames=3)
    mem.install(10)
    mem.install(11)
    mem.install(12)
    mem.touch(10)  # 11 is now the coldest
    assert mem.lru_victim() == 11


def test_pinning_excludes_from_eviction():
    mem = PhysicalMemory(page_size=16, frames=2)
    mem.install(0)
    mem.install(1)
    mem.pin(0)
    # 0 is older but pinned.
    assert mem.lru_victim() == 1
    mem.pin(1)
    with pytest.raises(FramePressure):
        mem.lru_victim()
    mem.unpin(0)
    assert mem.lru_victim() == 0


def test_nested_pins():
    mem = PhysicalMemory(page_size=16, frames=None)
    mem.install(3)
    mem.pin(3)
    mem.pin(3)
    mem.unpin(3)
    assert mem.pinned(3)
    mem.unpin(3)
    assert not mem.pinned(3)
    with pytest.raises(RuntimeError):
        mem.unpin(3)


def test_drop_rejects_pinned_pages():
    mem = PhysicalMemory(page_size=16, frames=None)
    mem.install(1)
    mem.pin(1)
    with pytest.raises(RuntimeError):
        mem.drop(1)
    mem.unpin(1)
    mem.drop(1)
    assert 1 not in mem


def test_drop_clears_recency_and_reinstall_starts_hot():
    # Evicting a page must leave no recency residue: after a reinstall
    # the page re-enters as the *hottest* frame, never inheriting the
    # stale position (or stamp, pre-O(1)-LRU) it held before the drop.
    mem = PhysicalMemory(page_size=16, frames=3)
    mem.install(0)
    mem.install(1)
    mem.install(2)
    mem.drop(0)  # 0 was the coldest
    assert 0 not in mem._recency
    mem.install(0)  # back in, now the hottest
    assert mem.lru_victim() == 1
    assert list(mem._recency) == [1, 2, 0]


def test_touch_of_non_resident_page_is_rejected():
    # Touching a dropped page used to silently resurrect a recency entry
    # for a frame that no longer exists; now it asserts.
    mem = PhysicalMemory(page_size=16, frames=3)
    mem.install(7)
    mem.drop(7)
    with pytest.raises(AssertionError):
        mem.touch(7)


def test_data_of_missing_page_raises():
    mem = PhysicalMemory(page_size=16, frames=None)
    with pytest.raises(KeyError):
        mem.data(99)


def test_wrong_size_install_rejected():
    mem = PhysicalMemory(page_size=16, frames=None)
    with pytest.raises(ValueError):
        mem.install(0, np.zeros(8, dtype=np.uint8))


def test_tiny_capacity_rejected():
    with pytest.raises(ValueError):
        PhysicalMemory(page_size=16, frames=1)


# ----------------------------------------------------------------------
# random replacement: the order-statistic index


def test_random_replacement_without_an_rng_is_rejected():
    # It used to run strict LRU silently.
    with pytest.raises(ValueError, match="random"):
        PhysicalMemory(page_size=16, frames=4, replacement="random")


def reference_victim(resident, pins, skip, rng):
    """What ``lru_victim`` computed before the index: list every
    evictable page, sort, index with one draw."""
    candidates = sorted(
        page for page in resident if not pins.get(page) and page not in skip
    )
    if not candidates:
        raise FramePressure("all resident pages are pinned")
    return candidates[rng.integers(len(candidates))]


@pytest.mark.parametrize("frames", [2, 3, 7, 64, 300])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_victims_match_the_sorted_scan(frames, seed):
    """Model-based differential test: every victim pick equals the
    sort-and-index reference on an equal-seed generator, the two
    generators stay in lockstep (one draw per successful pick, none on
    pressure), and the index is the sorted key list after every
    mutation."""
    mem = PhysicalMemory(16, frames, "random", np.random.default_rng(seed))
    ref_rng = np.random.default_rng(seed)
    ops = np.random.default_rng(1000 + seed)
    universe = 3 * frames  # pages are drawn from here; pool churns
    resident: set[int] = set()
    pins: dict[int, int] = {}
    pressured = picked = 0

    def check_index():
        assert mem._sorted == sorted(mem._frames)
        assert set(mem._frames) == resident

    for _ in range(1500):
        page = int(ops.integers(universe))
        op = ops.integers(7)
        if op <= 1:  # install (evicting the reference's way when full)
            if page not in resident and len(resident) == frames:
                free = [p for p in resident if not pins.get(p)]
                if not free:
                    continue
                victim = free[ops.integers(len(free))]
                mem.drop(victim)
                resident.discard(victim)
                check_index()
            mem.install(page)
            resident.add(page)
        elif op == 2 and page in resident:
            mem.touch(page)
        elif op == 3:  # pins on non-resident pages are legal and ignored
            mem.pin(page)
            pins[page] = pins.get(page, 0) + 1
        elif op == 4 and pins:
            page = sorted(pins)[ops.integers(len(pins))]
            mem.unpin(page)
            pins[page] -= 1
            if not pins[page]:
                del pins[page]
        elif op == 5 and page in resident and not pins.get(page):
            mem.drop(page)
            resident.discard(page)
        check_index()

        if not resident:
            continue
        style = ops.integers(4)
        if style == 0:
            skip = None
        elif style == 1:  # a few pages, resident or not
            skip = {int(p) for p in ops.integers(universe, size=ops.integers(1, 6))}
        elif style == 2:  # everything unpinned: pressure
            skip = {p for p in resident if not pins.get(p)}
        else:  # all but one candidate
            skip = set(sorted(resident)[1:])
        try:
            expected = reference_victim(resident, pins, skip or (), ref_rng)
        except FramePressure:
            with pytest.raises(FramePressure):
                mem.lru_victim(skip)
            pressured += 1
        else:
            assert mem.lru_victim(skip) == expected
            picked += 1
        assert mem._rng.bit_generator.state == ref_rng.bit_generator.state

    assert picked > 100 and pressured > 10


def test_random_pressure_when_every_resident_page_is_pinned():
    mem = PhysicalMemory(16, 2, "random", np.random.default_rng(0))
    before = mem._rng.bit_generator.state
    mem.install(4)
    mem.install(9)
    mem.pin(4)
    mem.pin(9)
    mem.pin(77)  # not resident: must not make the count go negative
    with pytest.raises(FramePressure):
        mem.lru_victim()
    assert mem._rng.bit_generator.state == before  # no draw on pressure
    mem.unpin(9)
    assert mem.lru_victim({77}) == 9


def test_lru_keeps_no_index():
    mem = PhysicalMemory(page_size=16, frames=4)
    mem.install(3)
    mem.install(1)
    mem.drop(3)
    assert mem._sorted is None


def _calls_for_one_pick(frames):
    """Python-level and C-level calls made by one ``lru_victim``."""
    mem = PhysicalMemory(16, frames, "random", np.random.default_rng(7))
    for page in range(frames):
        mem.install(page)
    mem.pin(frames // 2)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        mem.lru_victim()
    finally:
        sys.setprofile(None)
    return calls


def test_victim_pick_cost_does_not_grow_with_the_pool():
    """Complexity gate on a deterministic proxy: the pre-index scan made
    two ``dict.get`` calls per resident page per pick (15 M of them in
    one capacity run); a reintroduced scan fails here, not at the next
    benchmark."""
    assert _calls_for_one_pick(64) == _calls_for_one_pick(4096)
