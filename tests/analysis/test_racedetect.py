"""Race detector: unsynchronised accesses are reported, properly
synchronised ones are not — plus unit tests of the vector-clock core,
and the run-length shadow pinned against the per-word one it replaced."""

import random
import sys

import numpy as np
import pytest

from repro.analysis.racedetect import WORD, RaceDetector
from repro.api.ivy import Ivy
from repro.apps.common import alloc_done_ec, wait_done
from repro.config import ClusterConfig
from repro.metrics.collect import Counters
from repro.proc.pcb import Pid
from repro.sync.lock import LOCK_RECORD_BYTES, lock_acquire, lock_init, lock_release


class CounterApp:
    """Two workers increment one shared counter; ``locked`` selects
    whether the read-modify-write is protected by a queue lock."""

    def __init__(self, locked: bool) -> None:
        self.locked = locked

    def main(self, ctx):
        counter = yield from ctx.malloc(8)
        yield from ctx.mem.write_i64(counter, 0)
        lock = yield from ctx.malloc(LOCK_RECORD_BYTES)
        yield from lock_init(ctx, lock)
        done = yield from alloc_done_ec(ctx)
        for k in range(2):
            yield from ctx.spawn(self._worker, counter, lock, done, on=k % ctx.nnodes)
        yield from wait_done(ctx, done, 2)
        total = yield from ctx.mem.read_i64(counter)
        return counter, total

    def _worker(self, ctx, counter, lock, done):
        if self.locked:
            yield from lock_acquire(ctx, lock)
        value = yield from ctx.mem.read_i64(counter)
        yield ctx.flops(64)  # hold the stale value across some work
        yield from ctx.mem.write_i64(counter, value + 1)
        if self.locked:
            yield from lock_release(ctx, lock)
        yield from ctx.ec_advance(done)


def run_counter(locked: bool):
    ivy = Ivy(ClusterConfig(nodes=2, checker=True))
    counter, total = ivy.run(CounterApp(locked).main)
    return ivy, counter, total


def test_unsynchronised_counter_is_reported():
    ivy, counter, total = run_counter(locked=False)
    races = ivy.races.races
    assert races, "two unordered increments must race"
    assert all(report.addr == counter for report in races)
    assert {report.kind for report in races} <= {
        "write-write", "read-write", "write-read"
    }
    assert ivy.cluster.total_counters()["violation.race"] == len(races)
    # The memory stayed coherent even though the program raced.
    assert ivy.cluster.total_counters().violations().keys() == {"race"}


def test_locked_counter_is_clean():
    ivy, counter, total = run_counter(locked=True)
    assert total == 2  # no lost update
    assert ivy.races.races == []
    assert ivy.cluster.total_counters().violations() == {}


def test_spawn_and_wait_order_parent_and_children():
    """Parent writes before spawning; children read; parent reads the
    children's results after the eventcount join — all ordered, no race."""

    def main(ctx):
        src = yield from ctx.malloc(8)
        dst = yield from ctx.malloc(16)
        yield from ctx.mem.write_i64(src, 21)
        done = yield from alloc_done_ec(ctx)

        def child(cctx, k):
            value = yield from cctx.mem.read_i64(src)
            yield from cctx.mem.write_i64(dst + 8 * k, value * 2)
            yield from cctx.ec_advance(done)

        for k in range(2):
            yield from ctx.spawn(child, k, on=k % ctx.nnodes)
        yield from wait_done(ctx, done, 2)
        a = yield from ctx.mem.read_i64(dst)
        b = yield from ctx.mem.read_i64(dst + 8)
        return a + b

    ivy = Ivy(ClusterConfig(nodes=2, checker=True))
    assert ivy.run(main) == 84
    assert ivy.races.races == []


# ----------------------------------------------------------------------
# vector-clock core, driven directly


class _StubSim:
    now = 0


class _StubNode:
    def __init__(self):
        self.counters = Counters()


class _StubCluster:
    def __init__(self, nodes=2):
        self.sim = _StubSim()
        self.nodes = [_StubNode() for _ in range(nodes)]


def _detector():
    return RaceDetector(_StubCluster())


P1, P2 = Pid(0, 1), Pid(1, 1)


def test_concurrent_writes_race_once():
    det = _detector()
    det.on_access(P1, 0x100, 8, write=True, node_id=0)
    det.on_access(P2, 0x100, 8, write=True, node_id=1)
    det.on_access(P2, 0x100, 8, write=True, node_id=1)  # duplicate pair
    assert [r.kind for r in det.races] == ["write-write"]


def test_release_acquire_orders_accesses():
    det = _detector()
    det.on_access(P1, 0x100, 8, write=True, node_id=0)
    det.on_release(P1, 0x200)
    det.on_acquire(P2, 0x200)
    det.on_access(P2, 0x100, 8, write=True, node_id=1)
    assert det.races == []


def test_resume_park_edge_orders_accesses():
    det = _detector()
    det.on_access(P1, 0x100, 8, write=True, node_id=0)
    det.on_resume(P1, P2)
    det.on_wake(P2)
    det.on_access(P2, 0x100, 8, write=False, node_id=1)
    assert det.races == []


def test_spawn_clock_orders_parent_prefix_only():
    det = _detector()
    det.on_access(P1, 0x100, 8, write=True, node_id=0)
    child_clock = det.fork(P1)
    det.on_spawn(P2, child_clock)
    det.on_access(P2, 0x100, 8, write=False, node_id=1)  # ordered: no race
    assert det.races == []
    det.on_access(P1, 0x180, 8, write=True, node_id=0)  # after the fork
    det.on_access(P2, 0x180, 8, write=True, node_id=1)  # concurrent now
    assert [r.kind for r in det.races] == ["write-write"]


def test_sync_words_are_exempt():
    det = _detector()
    det.register_sync_range(0x300, 16)
    det.on_access(P1, 0x300, 16, write=True, node_id=0)
    det.on_access(P2, 0x300, 16, write=True, node_id=1)
    assert det.races == []


def test_mixed_read_write_race_kinds():
    det = _detector()
    det.on_access(P1, 0x400, 8, write=False, node_id=0)
    det.on_access(P2, 0x400, 8, write=True, node_id=1)
    assert [r.kind for r in det.races] == ["read-write"]
    det2 = _detector()
    det2.on_access(P1, 0x400, 8, write=True, node_id=0)
    det2.on_access(P2, 0x400, 8, write=False, node_id=1)
    assert [r.kind for r in det2.races] == ["write-read"]


def test_report_format_mentions_word_and_processes():
    det = _detector()
    det.note_sync_op("lock.acquire", 0x500, P1)
    det.on_access(P1, 0x400, 8, write=True, node_id=0)
    det.on_access(P2, 0x400, 8, write=True, node_id=1)
    text = det.races[0].format()
    assert "0x400" in text
    assert "lock.acquire" in text


# ----------------------------------------------------------------------
# benign-race allowlisting (CheckerConfig.known_races)


class DeclaredCounterApp(CounterApp):
    """The unlocked racy counter, but the program declares the race as
    intentional under the label ``"app.stat"``."""

    def __init__(self) -> None:
        super().__init__(locked=False)

    def main(self, ctx):
        counter = yield from ctx.malloc(8)
        ctx.declare_benign_race("app.stat", counter, 8)
        yield from ctx.mem.write_i64(counter, 0)
        lock = yield from ctx.malloc(LOCK_RECORD_BYTES)
        yield from lock_init(ctx, lock)
        done = yield from alloc_done_ec(ctx)
        for k in range(2):
            yield from ctx.spawn(self._worker, counter, lock, done, on=k % ctx.nnodes)
        yield from wait_done(ctx, done, 2)
        total = yield from ctx.mem.read_i64(counter)
        return counter, total


def test_allowlisted_race_is_suppressed_yet_counted():
    from repro.config import CheckerConfig

    ivy = Ivy(
        ClusterConfig(nodes=2, checker=CheckerConfig(known_races=("app.stat",)))
    )
    ivy.run(DeclaredCounterApp().main)
    det = ivy.races
    assert det.races == [], "allowlisted reports must leave the findings list"
    assert det.suppressed, "the race still happened; it is only reclassified"
    counters = ivy.cluster.total_counters()
    assert counters["race.suppressed"] == len(det.suppressed)
    assert counters.violations() == {}  # out of the violation namespace


def test_declaration_without_allowlist_still_reports():
    """The program's declaration alone must not silence anything — the
    run's configuration has to list the label too."""
    ivy = Ivy(ClusterConfig(nodes=2, checker=True))
    ivy.run(DeclaredCounterApp().main)
    assert ivy.races.suppressed == []
    assert ivy.races.races, "undeclared-in-config races keep reporting"
    assert ivy.cluster.total_counters().violations().keys() == {"race"}


def test_allowlist_without_declaration_suppresses_nothing():
    from repro.config import CheckerConfig

    ivy = Ivy(
        ClusterConfig(nodes=2, checker=CheckerConfig(known_races=("app.stat",)))
    )
    counter, total = ivy.run(CounterApp(locked=False).main)
    assert ivy.races.suppressed == []
    assert ivy.races.races  # no region was declared: nothing matches


def test_checker_config_truthiness_gates_the_checkers():
    # False is off; True and any CheckerConfig are on.
    from repro.config import CheckerConfig

    assert Ivy(ClusterConfig(nodes=2, checker=False)).races is None
    assert Ivy(ClusterConfig(nodes=2, checker=True)).races is not None
    assert Ivy(ClusterConfig(nodes=2, checker=CheckerConfig())).races is not None


def test_tsp_best_bound_allowlist_clears_the_report():
    """The motivating case: TSP's optimistic best-bound read is racy by
    design; allowlisting ``tsp.best-bound`` leaves a checked TSP run
    with an empty violation namespace."""
    from repro.apps.tsp import TspApp
    from repro.config import CheckerConfig

    app = TspApp(3, ncities=7)
    config = ClusterConfig(
        nodes=3, checker=CheckerConfig(known_races=("tsp.best-bound",))
    )
    ivy = Ivy(config)
    app.check(ivy.run(app.main))
    assert ivy.races.races == []
    assert ivy.cluster.total_counters().violations() == {}
    assert len(ivy.races.suppressed) == ivy.cluster.total_counters()[
        "race.suppressed"
    ]


# ----------------------------------------------------------------------
# the run-length shadow against the per-word shadow it replaced


class ReferenceShadow(RaceDetector):
    """The detector as it was before the run map: one dict entry per
    word, and an ``on_access`` that walks every word of every access.
    Clocks, happens-before edges and ``_report`` are the shared ones."""

    def __init__(self, cluster):
        super().__init__(cluster)
        #: word -> (writer, writer-epoch) of the last write.
        self.write_shadow = {}
        #: word -> reader epochs since the last write.
        self.read_shadow = {}
        self.words_walked = 0

    def register_sync_range(self, addr, nbytes):
        start = addr & ~(WORD - 1)
        for word in range(start, addr + nbytes, WORD):
            if word not in self.sync_words:
                self.sync_words.add(word)
                self.write_shadow.pop(word, None)
                self.read_shadow.pop(word, None)

    def on_access(self, pid, addr, nbytes, *, write, node_id):
        if nbytes <= 0:
            return
        vc = self.clock(pid)
        own = vc[pid]
        write_shadow = self.write_shadow
        read_shadow = self.read_shadow
        sync_words = self.sync_words
        for word in range((addr & ~(WORD - 1)), addr + nbytes, WORD):
            self.words_walked += 1
            if word in sync_words:
                continue
            last = write_shadow.get(word)
            if last is not None:
                wpid, wepoch = last
                if wpid != pid and wepoch > vc.get(wpid, 0):
                    kind = "write-write" if write else "write-read"
                    self._report(kind, word, pid, wpid, wepoch, node_id)
            if write:
                readers = read_shadow.pop(word, None)
                if readers:
                    for rpid, repoch in readers.items():
                        if rpid != pid and repoch > vc.get(rpid, 0):
                            self._report(
                                "read-write", word, pid, rpid, repoch, node_id
                            )
                write_shadow[word] = (pid, own)
            else:
                readers = read_shadow.get(word)
                if readers is None:
                    read_shadow[word] = {pid: own}
                else:
                    readers[pid] = own


def _expand(det):
    """The run map as the reference's two per-word dicts.  Reader dicts
    become item lists: their order is the order races are reported in."""
    writes, reads = {}, {}
    for start, end, (last, readers) in det.runs:
        for word in range(start, end, WORD):
            if last is not None:
                writes[word] = last
            if readers is not None:
                reads[word] = list(readers.items())
    return writes, reads


def _assert_run_invariants(det):
    runs = det.runs
    for start, end, (last, readers) in runs:
        assert start < end and start % WORD == 0 and end % WORD == 0
        assert last is not None or readers  # a run carries some state
        assert readers is None or readers  # never an empty reader dict
        assert not any(w in det.sync_words for w in range(start, end, WORD))
    for (_, end, state), (start, _, after) in zip(runs, runs[1:]):
        assert end <= start, "runs sorted and disjoint"
        if end == start:
            same = state[0] == after[0] and (
                None if state[1] is None else list(state[1].items())
            ) == (None if after[1] is None else list(after[1].items()))
            assert not same, "touching runs with one state must be merged"
    assert det._sync_sorted == sorted(det.sync_words)
    assert det.runs_peak >= len(runs)


def _report_keys(reports):
    return [
        (r.kind, r.addr, r.accessor, r.other, r.other_epoch, r.time, r.sync_log)
        for r in reports
    ]


def _assert_same_shadow(det, ref, since=(0, 0)):
    """Equal reports (from index ``since`` on — the caller has compared
    the ones before), counters, per-word state and telemetry."""
    assert len(det.races) == len(ref.races)
    assert len(det.suppressed) == len(ref.suppressed)
    assert _report_keys(det.races[since[0]:]) == _report_keys(ref.races[since[0]:])
    assert _report_keys(det.suppressed[since[1]:]) == _report_keys(
        ref.suppressed[since[1]:]
    )
    for mine, theirs in zip(det.nodes, ref.nodes):
        assert mine.counters.snapshot() == theirs.counters.snapshot()
    writes, reads = _expand(det)
    assert writes == ref.write_shadow
    assert reads == {w: list(r.items()) for w, r in ref.read_shadow.items()}
    assert det.sync_words == ref.sync_words
    assert det.words_covered == ref.words_walked
    _assert_run_invariants(det)


BASE = 0x4000
PIDS = [Pid(k % 2, k + 1) for k in range(5)]


class _Pair:
    """The run-length detector and the reference, fed the same calls."""

    def __init__(self):
        self.det = RaceDetector(_StubCluster())
        self.ref = ReferenceShadow(_StubCluster())
        for side in (self.det, self.ref):
            side.known_races = frozenset({"by-design"})
        self._compared = (0, 0)

    def __getattr__(self, name):
        def both(*args, **kwargs):
            getattr(self.det, name)(*args, **kwargs)
            getattr(self.ref, name)(*args, **kwargs)

        return both

    def tick(self):
        self.det.sim.now += 7
        self.ref.sim.now += 7

    def access(self, pid, addr, nbytes, write):
        self.on_access(pid, addr, nbytes, write=write, node_id=pid.node)
        self.compare()

    def compare(self):
        _assert_same_shadow(self.det, self.ref, self._compared)
        self._compared = (len(self.det.races), len(self.det.suppressed))

    def order(self, src, dst, addr=0x9000):
        """A release/acquire edge from ``src`` to ``dst``."""
        self.on_release(src, addr)
        self.on_acquire(dst, addr)


def test_run_shadow_matches_reference_on_the_named_cases():
    """The cases ISSUE 16 names, scripted so none is left to the dice."""
    a, b, c, d, e = PIDS
    pair = _Pair()
    pair.access(a, BASE, 0, True)  # zero-length: nothing tracked
    assert pair.det.accesses == 0 and pair.det.runs == []
    pair.access(a, BASE, 512, True)  # one long run
    assert len(pair.det.runs) == 1
    # A race inside the middle of the run, by an unaligned access.
    pair.access(b, BASE + 203, 30, True)
    assert [r.addr for r in pair.det.races] == [BASE + 200, BASE + 208, BASE + 216, BASE + 224, BASE + 232]
    assert len(pair.det.runs) == 3
    # A reader set of three pids; the same pid re-reads at a newer epoch.
    for reader in (c, d, e):
        pair.order(b, reader)
        pair.order(a, reader)
        pair.access(reader, BASE + 64, 256, False)
    pair.order(c, d, 0x9100)  # ticks c: its next read carries a new epoch
    pair.access(c, BASE + 128, 64, False)
    assert max(len(s[1] or ()) for _, _, s in pair.det.runs) == 3
    pair.access(a, BASE + 100, 120, True)  # read-write races, three readers
    assert {r.other for r in pair.det.races if r.kind == "read-write"} == {c, d, e}
    # An access straddling synchronisation words, before and after they
    # are registered inside an existing run.
    pair.register_sync_range(BASE + 296, 16)
    pair.compare()
    pair.access(d, BASE + 280, 64, True)
    pair.access(e, BASE + 290, 40, False)
    assert not any(r.addr in (BASE + 296, BASE + 304) for r in pair.det.races)
    # Reader sets that agree as dicts but not in order stay two runs.
    pair.access(a, BASE + 1024, 8, False)
    pair.access(b, BASE + 1024, 16, False)
    pair.access(a, BASE + 1032, 8, False)
    assert len([r for r in pair.det.runs if r[0] >= BASE + 1024]) == 2
    pair.access(c, BASE + 1024, 16, True)
    assert [(r.addr, r.other) for r in pair.det.races[-4:]] == [
        (BASE + 1024, a), (BASE + 1024, b), (BASE + 1032, b), (BASE + 1032, a),
    ]


@pytest.mark.parametrize("seed", [1988, 2024, 7, 33, 101, 4242])
def test_run_shadow_matches_reference_on_random_programs(seed):
    """Model-based: 400 mixed operations, the two shadows compared after
    every access — reports (with times and sync logs), counters, state
    word by word, the telemetry, and the run map's own invariants."""
    rng = random.Random(seed)
    pair = _Pair()
    pair.declare_benign_race("by-design", BASE + 96, 40)
    pair.declare_benign_race("not-allowlisted", BASE + 400, 64)
    for _ in range(400):
        pair.tick()
        roll = rng.random()
        pid = rng.choice(PIDS)
        if roll < 0.70:
            big = rng.random() < 0.15
            nbytes = rng.randrange(3001) if big else rng.randrange(41)
            addr = BASE + rng.randrange(1200 if big else 640)
            pair.access(pid, addr, nbytes, rng.random() < 0.45)
        elif roll < 0.84:
            other = rng.choice(PIDS)
            record = 0x9000 + 8 * rng.randrange(3)
            pair.note_sync_op("lock.acquire", record, pid)
            pair.order(pid, other, record)
        elif roll < 0.92:
            other = rng.choice(PIDS)
            pair.on_resume(pid, other)
            if rng.random() < 0.8:
                pair.on_wake(other)
        elif roll < 0.96:
            pair.register_sync_range(
                BASE + rng.randrange(1400), rng.choice((8, 16, 24))
            )
            pair.compare()
        else:
            child = Pid(rng.randrange(2), 100 + rng.randrange(4))
            pair.on_spawn(child, pair.det.fork(pid))
            pair.ref.fork(pid)
            pair.access(child, BASE + rng.randrange(640), 24, rng.random() < 0.5)
    _assert_same_shadow(pair.det, pair.ref)  # every report, once more
    assert pair.det._reported == pair.ref._reported
    assert pair.det.races and pair.det.suppressed  # the program did race
    assert pair.det.accesses > 250


def _calls_for_one_access(nbytes):
    """Python-level and C-level calls made by one race-free read of a
    block another process wrote and then released."""
    det = _detector()
    det.on_access(P1, 0x10000, nbytes, write=True, node_id=0)
    det.on_release(P1, 0x200)
    det.on_acquire(P2, 0x200)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        det.on_access(P2, 0x10000, nbytes, write=False, node_id=1)
    finally:
        sys.setprofile(None)
    assert det.races == []
    return calls


def test_access_cost_does_not_grow_with_the_block():
    """Complexity gate on a deterministic proxy: the per-word loop made
    65,536 iterations (a dict probe and a ``Pid.__eq__`` each) for one
    512 KiB read; a reintroduced loop fails here, not at the next
    benchmark."""
    assert abs(_calls_for_one_access(8) - _calls_for_one_access(512 * 1024)) <= 4


def test_block_partitioned_program_keeps_a_run_per_block():
    """Eight processes write their own 32 KiB block, meet at a barrier,
    then read their block and a row of each neighbour's: the map holds
    O(processes) runs however many words the blocks have."""
    det = _detector()
    main = Pid(0, 99)
    procs = [Pid(k % 2, k + 1) for k in range(8)]
    block, row = 32 * 1024, 512
    for k, pid in enumerate(procs):
        det.on_spawn(pid, det.fork(main))
        det.on_access(pid, 0x100000 + k * block, block, write=True, node_id=pid.node)
    for pid in procs:  # barrier: everyone reports in, then is released
        det.on_resume(pid, main)
    det.on_wake(main)
    for pid in procs:
        det.on_resume(main, pid)
        det.on_wake(pid)
    for k, pid in enumerate(procs):
        lo = 0x100000 + k * block - (row if k else 0)
        hi = 0x100000 + (k + 1) * block + (row if k < 7 else 0)
        det.on_access(pid, lo, hi - lo, write=False, node_id=pid.node)
    assert det.races == []
    assert det.words_covered > 8 * 2 * block // WORD
    assert len(det.runs) <= 4 * len(procs)
    assert det.runs_peak <= 4 * len(procs)


def test_two_dimensional_write_is_tracked_in_full():
    """``write_bytes`` flattens its buffer, so a (4, 8) uint8 array is 32
    bytes; tracking ``len(data)`` = 4 of them missed a race on the rest."""

    def main(ctx):
        buf = yield from ctx.malloc(32)
        done = yield from alloc_done_ec(ctx)

        def reader(cctx):
            yield from cctx.mem.read_i64(buf + 24)  # the last word
            yield from cctx.ec_advance(done)

        yield from ctx.spawn(reader, on=1)
        yield from ctx.mem.write_bytes(buf, np.ones((4, 8), dtype=np.uint8))
        yield from wait_done(ctx, done, 1)
        return buf

    ivy = Ivy(ClusterConfig(nodes=2, checker=True))
    buf = ivy.run(main)
    assert [r.addr for r in ivy.races.races] == [buf + 24]
