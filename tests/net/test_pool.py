"""Unit tests for the message/page free-list pools (pure data structures)."""

import numpy as np
import pytest

from repro.net.packet import HEADER_BYTES, Message
from repro.net.pool import MessagePool, PagePool


def _acquire(pool, **kw):
    defaults = dict(
        src=1, dst=2, kind="req", op="svm.read", origin=1, msg_id=7,
        payload=("p", 3), nbytes=1024,
    )
    defaults.update(kw)
    return pool.acquire(**defaults)


def test_acquire_matches_constructed_message_field_for_field():
    pool = MessagePool()
    msg = _acquire(pool)
    ref = Message(1, 2, "req", "svm.read", 1, 7, ("p", 3), 1024)
    for field in ("src", "dst", "kind", "op", "origin", "msg_id", "payload",
                  "nbytes", "load_hint", "reply_scheme", "targets", "span"):
        assert getattr(msg, field) == getattr(ref, field), field
    assert msg.refs == 1
    assert pool.allocated == 1 and pool.reused == 0


def test_release_recycles_and_reuse_resets_every_field():
    pool = MessagePool()
    msg = _acquire(pool)
    msg.load_hint = 9
    first_serial = msg.serial
    pool.release(msg)
    again = _acquire(
        pool, src=5, dst=6, kind="bcast", op="svm.locate", origin=5,
        msg_id=11, payload=None, nbytes=64, reply_scheme="any",
        targets=(1, 2), span=3,
    )
    assert again is msg  # recycled, not reallocated
    assert pool.reused == 1
    assert (again.src, again.dst, again.kind, again.op) == (5, 6, "bcast", "svm.locate")
    assert (again.origin, again.msg_id, again.payload) == (5, 11, None)
    assert again.reply_scheme == "any" and again.targets == (1, 2) and again.span == 3
    assert again.load_hint == 0 and again.refs == 1
    assert again.serial != first_serial  # identity keys must see a fresh message


def test_release_clears_payload_so_recycled_envelopes_pin_nothing():
    pool = MessagePool()
    msg = _acquire(pool, payload=np.zeros(16, dtype=np.uint8), targets=(1,))
    pool.release(msg)
    assert msg.payload is None and msg.targets is None


def test_retain_release_only_last_reference_recycles():
    pool = MessagePool()
    msg = _acquire(pool)
    pool.retain(msg)  # in flight
    pool.retain(msg)  # server
    pool.release(msg)
    pool.release(msg)
    assert _acquire(pool) is not msg  # still held by the creator
    pool.release(msg)
    assert _acquire(pool) is msg


def test_over_release_raises():
    pool = MessagePool()
    msg = _acquire(pool)
    pool.release(msg)
    with pytest.raises(RuntimeError, match="over-released"):
        pool.release(msg)


def test_nbytes_floored_at_header_size_on_reuse():
    pool = MessagePool()
    pool.release(_acquire(pool))
    msg = _acquire(pool, nbytes=1)
    assert msg.nbytes == HEADER_BYTES


def test_page_pool_copies_and_reuses_by_size():
    pool = PagePool()
    frame = np.arange(64, dtype=np.uint8)
    snap = pool.copy_of(frame)
    assert snap is not frame and bytes(snap) == bytes(frame)
    frame[:] = 0
    assert snap[1] == 1  # a real copy, not a view
    pool.give(snap)
    other = np.full(64, 7, dtype=np.uint8)
    again = pool.copy_of(other)
    assert again is snap  # recycled buffer of the matching size
    assert bytes(again) == bytes(other)
    assert pool.copy_of(np.zeros(128, dtype=np.uint8)).nbytes == 128
    assert (pool.allocated, pool.reused) == (2, 1)


def test_page_pool_shares_and_releases_an_image():
    pool = PagePool()
    buf = pool.copy_of(np.arange(64, dtype=np.uint8))
    assert buf.flags.writeable and pool.outstanding == 1
    assert pool.share(buf) is buf  # owner + one reader
    assert not buf.flags.writeable
    pool.share(buf)  # a second reader
    pool.release(buf)
    pool.release(buf)
    assert pool.outstanding == 1 and not pool._free[64]  # the owner still holds it
    pool.release(buf)
    assert pool.outstanding == 0 and pool._free[64][0] is buf
    with pytest.raises(RuntimeError, match="over-released"):
        pool.release(buf)
    with pytest.raises(RuntimeError, match="not handed out"):
        pool.share(buf)


def test_page_pool_private_copies_only_while_shared():
    pool = PagePool()
    buf = pool.copy_of(np.arange(64, dtype=np.uint8))
    pool.share(buf)
    mine = pool.private(buf)  # another holder remains: copy-on-write
    assert mine is not buf and mine.flags.writeable
    assert bytes(mine) == bytes(buf) and not np.shares_memory(mine, buf)
    assert pool.cow_copies == 1 and pool.outstanding == 2
    assert pool.private(buf) is buf  # the last holder: no copy
    assert buf.flags.writeable and pool.cow_copies == 1
    assert pool.private(mine) is mine  # already private


def test_page_pool_recycled_buffer_comes_back_writable():
    pool = PagePool()
    buf = pool.copy_of(np.zeros(64, dtype=np.uint8))
    pool.share(buf)
    pool.release(buf)
    pool.release(buf)
    again = pool.take(64)
    assert again is buf and again.flags.writeable
    again[0] = 1
    assert (pool.allocated, pool.reused, pool.outstanding, pool.high_water) == (
        1, 1, 1, 1,
    )
