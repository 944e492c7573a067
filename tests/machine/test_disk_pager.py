"""Unit tests for the disk model and the LRU pager."""

import numpy as np
import pytest

from repro.config import DiskConfig
from repro.machine import pager as pager_module
from repro.machine.disk import Disk
from repro.machine.memory import FramePressure, PhysicalMemory
from repro.machine.pager import Pager
from repro.metrics.collect import Counters
from repro.sim.kernel import Simulator
from repro.sim.process import SimDriver, TaskFailure


PAGE = 64


def make_disk(**cfg):
    counters = Counters()
    return Disk(DiskConfig(**cfg), PAGE, counters), counters


def run(sim, driver, gen):
    task = driver.spawn(gen, "t")
    sim.run()
    if task.error:
        raise task.error
    return task.result


def test_disk_write_read_roundtrip_charges_time_and_counts():
    sim = Simulator()
    driver = SimDriver(sim)
    disk, counters = make_disk(seek=1000, bandwidth_bps=8_000_000)
    data = np.arange(PAGE, dtype=np.uint8)

    def job():
        yield from disk.write_page(7, data)
        back = yield from disk.read_page(7)
        return back

    result = run(sim, driver, job())
    assert np.array_equal(result, data)
    assert counters["disk_writes"] == 1
    assert counters["disk_reads"] == 1
    expected = 2 * (1000 + PAGE * 8 * 1_000_000_000 // 8_000_000)
    assert sim.now == expected


def test_disk_read_of_missing_page_raises():
    sim = Simulator()
    driver = SimDriver(sim)
    disk, _ = make_disk()

    def job():
        yield from disk.read_page(3)

    with pytest.raises(Exception):
        run(sim, driver, job())


def test_disk_transfers_serialise_on_the_arm():
    sim = Simulator()
    driver = SimDriver(sim)
    disk, _ = make_disk(seek=1_000_000, bandwidth_bps=8_000_000_000)

    def writer(page):
        yield from disk.write_page(page, np.zeros(PAGE, dtype=np.uint8))

    driver.spawn(writer(0), "w0")
    driver.spawn(writer(1), "w1")
    sim.run()
    # Two sequential seeks, not one.
    assert sim.now >= 2_000_000


def make_pager(frames=3):
    sim = Simulator()
    driver = SimDriver(sim)
    counters = Counters()
    memory = PhysicalMemory(PAGE, frames)
    disk = Disk(DiskConfig(seek=100), PAGE, counters)
    pager = Pager(memory, disk, counters)
    return sim, driver, memory, disk, pager, counters


def test_pager_evicts_lru_via_policy():
    sim, driver, memory, disk, pager, counters = make_pager(frames=2)
    evicted = []

    def policy(page):
        evicted.append(page)
        yield from pager.page_out(page)
        return True

    pager.set_eviction_policy(policy)

    def image(fill):
        # install adopts a buffer of the memory's page pool.
        return memory.pages.copy_of(np.full(PAGE, fill, dtype=np.uint8))

    def job():
        yield from pager.install(0, image(1))
        yield from pager.install(1, image(2))
        yield from pager.install(2, image(3))

    run(sim, driver, job())
    assert evicted == [0]
    assert disk.holds(0)
    assert sorted(memory.resident_pages()) == [1, 2]
    assert counters["evictions"] == 1
    assert counters["disk_writes"] == 1


def test_pager_page_in_restores_content():
    sim, driver, memory, disk, pager, counters = make_pager(frames=2)

    def policy(page):
        yield from pager.page_out(page)
        return True

    pager.set_eviction_policy(policy)
    payload = np.arange(PAGE, dtype=np.uint8)

    def job():
        # install adopts a buffer of the memory's page pool.
        yield from pager.install(0, memory.pages.copy_of(payload))
        yield from pager.install(1)
        yield from pager.install(2)  # evicts page 0 to disk
        frame = yield from pager.page_in(0)  # evicts another, restores 0
        return frame

    frame = run(sim, driver, job())
    assert np.array_equal(frame, payload)
    assert counters["disk_reads"] == 1
    assert not disk.holds(0)  # image discarded after successful page-in


def test_pager_without_policy_raises_under_pressure():
    sim, driver, memory, disk, pager, counters = make_pager(frames=2)

    def job():
        yield from pager.install(0)
        yield from pager.install(1)
        yield from pager.install(2)

    with pytest.raises(Exception):
        run(sim, driver, job())


def test_broken_policy_detected():
    sim, driver, memory, disk, pager, counters = make_pager(frames=2)

    def policy(page):
        return True  # claims success without freeing the frame
        yield  # pragma: no cover

    pager.set_eviction_policy(policy)

    def job():
        yield from pager.install(0)
        yield from pager.install(1)
        yield from pager.install(2)

    with pytest.raises(Exception, match="failed to release"):
        run(sim, driver, job())


def test_frame_pool_exhaustion_is_a_located_error(monkeypatch):
    """All frames pinned for good: after the stall bound the pager names
    the node, the wanted page and what holds the pool, instead of
    re-raising the victim scan's bare 'all resident pages are pinned'."""
    monkeypatch.setattr(pager_module, "STALL_LIMIT", 3)
    sim = Simulator()
    driver = SimDriver(sim)
    counters = Counters()
    memory = PhysicalMemory(PAGE, 2)
    pager = Pager(memory, Disk(DiskConfig(), PAGE, counters, node_id=5), counters)
    pager.set_eviction_policy(lambda page: (yield from pager.page_out(page)))
    memory.install(10)
    memory.install(11)
    memory.pin(10)
    memory.pin(11)

    def job():
        yield from pager.install(12)

    with pytest.raises(TaskFailure) as caught:
        run(sim, driver, job())
    assert isinstance(caught.value.__cause__, FramePressure)
    message = str(caught.value.__cause__)
    assert "node 5" in message and "page 12" in message
    assert "after 3 stalls" in message
    assert "2 resident, 2 pinned, 0 lock-vetoed" in message
    assert sim.now == 3 * 100_000  # three backoffs, then the failure
    assert counters["evictions"] == 0
