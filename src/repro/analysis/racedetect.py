"""Vector-clock happens-before race detection for IVY programs.

Sequential consistency (the paper's "the value returned by a read ...
is the value written by the latest write") makes shared memory *look*
like one memory, but it does not order application accesses: two
processes touching the same word without synchronisation are still a
data race, and their outcome depends on fault-arrival interleavings.
:class:`RaceDetector` finds such accesses the way TSan/FastTrack do,
adapted to IVY's primitives:

happens-before edges
    - ``atomic_update`` sections on the same record address form a
      release/acquire chain.  The edge is taken *inside* the wrapped
      mutator, while the page's table-entry lock is held, so the
      detector's order is exactly the cluster-wide execution order —
      hooking at call time instead would reorder edges across the
      fault-handling yields and fabricate races.
    - Remote notification: ``resume``/``resume_async`` publishes the
      waker's clock; the parked process joins it when ``park`` returns.
      This covers lock hand-off, eventcount wake-ups and barriers.
    - ``spawn``: the child starts with the parent's clock.  The clock is
      carried inside the spawn payload because a remotely spawned child
      can start running before the spawn reply reaches the parent.

shadow memory
    Aligned 8-byte words (every IVY synchronisation field and both
    benchmark element types are int64/float64).  The state of a word is
    FastTrack's — the last write epoch and the read epochs since that
    write — but it is stored per *run*: a sorted map of disjoint word
    ranges whose words all share one state, because IVY programs touch
    memory in large per-process blocks.  An access splits the map at its
    two ends, compares once per overlapped run, and rewrites the range;
    words are enumerated only to print the reports of a run that *is*
    racy.  A word outside every run has never been touched.
    Words covered by an ``atomic_update`` are classified as
    synchronisation state and exempt from data-race checking (e.g.
    ``Read(ec)`` intentionally reads the count without the record lock);
    no run ever covers one.

Races are *recorded*, not raised — a racy program is a finding, not a
checker failure.  Each :class:`RaceReport` carries both access epochs
and the most recent synchronisation operations for diagnosis; every
report also bumps the ``violation.race`` counter on the node that
performed the later access.

Known-benign races can be allowlisted: an application declares a
race-by-design region with :meth:`RaceDetector.declare_benign_race`
(via ``IvyProcessContext``), and the run's configuration lists the
labels it accepts in ``CheckerConfig.known_races``.  Suppression needs
*both* halves — the declaration locates the words, the config
authorises the label — so a program cannot silence its own findings.
Suppressed reports land on :attr:`RaceDetector.suppressed` and the
``race.suppressed`` counter (outside the violation namespace) instead
of vanishing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from repro.proc.pcb import Pid

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.cluster import Cluster
    from repro.svm.address_space import SharedAddressSpace

__all__ = ["RaceDetector", "RaceReport", "TrackedMemory"]

#: Shadow-memory granularity: aligned 8-byte words.
WORD = 8

#: How many recent synchronisation operations a report carries.
SYNC_LOG_WINDOW = 16

VectorClock = dict[Pid, int]

#: One run's shadow state: ``(last write, reads since that write)`` —
#: ``(writer, epoch) | None`` and ``{reader: epoch} | None`` (never an
#: empty dict).  Values are immutable once stored: runs share them.
RunState = tuple["tuple[Pid, int] | None", "dict[Pid, int] | None"]


def _same_state(a: RunState, b: RunState) -> bool:
    """Whether two runs may be merged.  Reader dicts must agree in
    insertion order too: it is the order their races are reported in."""
    if a is b:
        return True
    if a[0] != b[0]:
        return False
    ra, rb = a[1], b[1]
    if ra is None or rb is None:
        return ra is rb
    return ra == rb and list(ra) == list(rb)


@dataclass
class RaceReport:
    """One unsynchronised pair of accesses to the same shared word."""

    kind: str  # "write-write" | "read-write" | "write-read"
    addr: int  # word-aligned shared virtual address
    time: int  # simulated time of the later access
    accessor: Pid  # the process making the later access
    other: Pid  # the process whose earlier access it races with
    other_epoch: int  # the earlier access's clock component
    sync_log: list[tuple[int, str, int, Pid]] = field(default_factory=list)

    def format(self) -> str:
        head = (
            f"[race:{self.kind}] word {self.addr:#x}: {self.accessor} at "
            f"t={self.time} races with {self.other}@{self.other_epoch}"
        )
        lines = [head]
        if self.sync_log:
            lines.append("  recent synchronisation operations:")
            for time, op, addr, pid in self.sync_log:
                lines.append(f"    t={time} {op} addr={addr:#x} by {pid}")
        return "\n".join(lines)


class RaceDetector:
    """Cluster-wide happens-before tracker (one per checker-enabled run)."""

    def __init__(self, cluster: "Cluster") -> None:
        # The nodes and the clock, not the cluster: every process holds
        # this detector, and a spawn server the nodes hold hands it on.
        self.nodes = cluster.nodes
        self.sim = cluster.sim
        #: Labels the configuration accepts as benign (CheckerConfig).
        #: A bare-bool checker (and the unit-test stub clusters, which
        #: carry no config at all) allowlists nothing.
        checker = getattr(getattr(cluster, "config", None), "checker", True)
        self.known_races: frozenset[str] = frozenset(
            getattr(checker, "known_races", ())
        )
        #: label -> declared word-aligned regions (start, end-exclusive).
        self._benign_regions: dict[str, list[tuple[int, int]]] = {}
        self.clocks: dict[Pid, VectorClock] = {}
        #: Last released clock per atomic_update record address.
        self.sync_clocks: dict[int, VectorClock] = {}
        #: Clocks published by resume() and waiting for the target's park
        #: to return.
        self.pending_wakes: dict[Pid, list[VectorClock]] = {}
        #: The run-length shadow: run ``k`` covers the word addresses
        #: ``[_starts[k], _ends[k])`` and all of them have ``_states[k]``.
        #: Runs are ascending, disjoint and non-empty; two runs that
        #: touch differ in state; none covers a synchronisation word.
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._states: list[RunState] = []
        #: Words inside atomic_update records (synchronisation state),
        #: and the same words ascending (to find those inside an access).
        self.sync_words: set[int] = set()
        self._sync_sorted: list[int] = []
        #: Telemetry: accesses checked, words they covered, and the
        #: longest the run map has been.
        self.accesses = 0
        self.words_covered = 0
        self.runs_peak = 0
        self.races: list[RaceReport] = []
        #: Reports matching a declared + allowlisted benign region:
        #: suppressed from ``races`` but kept for inspection.
        self.suppressed: list[RaceReport] = []
        self._reported: set[tuple[str, int, Pid, Pid]] = set()
        self.sync_log: deque[tuple[int, str, int, Pid]] = deque(
            maxlen=SYNC_LOG_WINDOW
        )

    # ------------------------------------------------------------------
    # vector-clock plumbing

    def clock(self, pid: Pid) -> VectorClock:
        vc = self.clocks.get(pid)
        if vc is None:
            vc = {pid: 1}
            self.clocks[pid] = vc
        return vc

    def capture(self, pid: Pid) -> VectorClock:
        """A snapshot of ``pid``'s clock (for spawn payloads)."""
        return dict(self.clock(pid))

    def _tick(self, pid: Pid) -> None:
        vc = self.clock(pid)
        vc[pid] = vc.get(pid, 0) + 1

    @staticmethod
    def _join(into: VectorClock, other: VectorClock) -> None:
        for pid, component in other.items():
            if component > into.get(pid, 0):
                into[pid] = component

    # ------------------------------------------------------------------
    # happens-before edges

    def fork(self, parent: Pid) -> VectorClock:
        """Snapshot the parent's clock for a spawn and advance the parent
        (later parent accesses are concurrent with the child)."""
        snapshot = self.capture(parent)
        self._tick(parent)
        return snapshot

    def on_spawn(self, child: Pid, parent_clock: VectorClock) -> None:
        """The child inherits everything that happened before the spawn."""
        vc = dict(parent_clock)
        vc[child] = vc.get(child, 0) + 1
        self.clocks[child] = vc

    def on_acquire(self, pid: Pid, addr: int) -> None:
        """Entering an atomic section: join the last releaser's clock."""
        published = self.sync_clocks.get(addr)
        if published is not None:
            self._join(self.clock(pid), published)

    def on_release(self, pid: Pid, addr: int) -> None:
        """Leaving an atomic section: publish our clock on the record."""
        self.sync_clocks[addr] = self.capture(pid)
        self._tick(pid)

    def on_resume(self, src: Pid, dst: Pid) -> None:
        """A wake-up notification carries the waker's clock to ``dst``."""
        self.pending_wakes.setdefault(dst, []).append(self.capture(src))
        self._tick(src)

    def on_wake(self, pid: Pid) -> None:
        """``park`` returned: join every clock published at this process."""
        for published in self.pending_wakes.pop(pid, ()):
            self._join(self.clock(pid), published)

    def note_sync_op(self, op: str, addr: int, pid: Pid) -> None:
        """Record a synchronisation call for race-report context."""
        self.sync_log.append((self.sim.now, op, addr, pid))

    def declare_benign_race(self, label: str, addr: int, nbytes: int) -> None:
        """Declare ``[addr, addr+nbytes)`` as racy by design under
        ``label``.  The declaration alone changes nothing: reports on
        these words are suppressed only when the run's
        ``CheckerConfig.known_races`` also lists the label."""
        start = addr & ~(WORD - 1)
        self._benign_regions.setdefault(label, []).append((start, addr + nbytes))

    def _benign_label(self, word: int) -> str | None:
        """The allowlisted label covering ``word``, if any."""
        for label in self.known_races:
            for start, end in self._benign_regions.get(label, ()):
                if start <= word < end:
                    return label
        return None

    def register_sync_range(self, addr: int, nbytes: int) -> None:
        """Classify an atomic_update record's words as synchronisation
        state: they are ordered by the record's own release/acquire chain
        and exempt from data-race checking."""
        start = addr & ~(WORD - 1)
        for word in range(start, addr + nbytes, WORD):
            if word not in self.sync_words:
                self.sync_words.add(word)
                insort(self._sync_sorted, word)
                self._forget_word(word)

    def _forget_word(self, word: int) -> None:
        """Cut ``word`` out of the run that covers it, if one does."""
        starts, ends, states = self._starts, self._ends, self._states
        k = bisect_right(starts, word) - 1
        if k < 0 or ends[k] <= word:
            return
        end = ends[k]
        after = word + WORD
        if starts[k] < word:
            ends[k] = word
            if after < end:
                starts.insert(k + 1, after)
                ends.insert(k + 1, end)
                states.insert(k + 1, states[k])
                self.runs_peak = max(self.runs_peak, len(starts))
        elif after < end:
            starts[k] = after
        else:
            del starts[k], ends[k], states[k]

    @property
    def runs(self) -> list[tuple[int, int, RunState]]:
        """The shadow as ``(start, end, state)`` runs, ascending."""
        return list(zip(self._starts, self._ends, self._states))

    # ------------------------------------------------------------------
    # data accesses

    def on_access(
        self, pid: Pid, addr: int, nbytes: int, *, write: bool, node_id: int
    ) -> None:
        """Check one application access against the shadow memory."""
        if nbytes <= 0:
            return
        lo = addr & ~(WORD - 1)
        hi = (addr + nbytes + WORD - 1) & ~(WORD - 1)
        self.accesses += 1
        self.words_covered += (hi - lo) // WORD
        vc = self.clock(pid)
        sync = self._sync_sorted
        i = bisect_left(sync, lo)
        while i < len(sync) and sync[i] < hi:
            # Synchronisation words split the access; they are skipped.
            if lo < sync[i]:
                self._access_range(pid, vc, lo, sync[i], write, node_id)
            lo = sync[i] + WORD
            i += 1
        if lo < hi:
            self._access_range(pid, vc, lo, hi, write, node_id)
        if len(self._starts) > self.runs_peak:
            self.runs_peak = len(self._starts)

    def _access_range(
        self, pid: Pid, vc: VectorClock, lo: int, hi: int, write: bool,
        node_id: int,
    ) -> None:
        """One access to the words ``[lo, hi)``, none of them a
        synchronisation word: check each overlapped run once, then
        rewrite the range."""
        starts, ends, states = self._starts, self._ends, self._states
        own = vc[pid]
        first = bisect_right(ends, lo)  # first run ending after lo
        stop = bisect_left(starts, hi, first)  # first run starting at/after hi

        for k in range(first, stop):
            last, readers = states[k]
            found: list[tuple[str, Pid, int]] = []
            if last is not None:
                wpid, wepoch = last
                if wpid != pid and wepoch > vc.get(wpid, 0):
                    kind = "write-write" if write else "write-read"
                    found.append((kind, wpid, wepoch))
            if write and readers is not None:
                for rpid, repoch in readers.items():
                    if rpid != pid and repoch > vc.get(rpid, 0):
                        found.append(("read-write", rpid, repoch))
            if found:
                # The run is homogeneous, so the verdict above holds for
                # each of its words; enumerate them only to report.
                for word in range(max(lo, starts[k]), min(hi, ends[k]), WORD):
                    for kind, other, epoch in found:
                        self._report(kind, word, pid, other, epoch, node_id)

        if stop - first == 1 and starts[first] <= lo and hi <= ends[first]:
            # Inside one run: a repeat of its last access changes nothing.
            last, readers = states[first]
            if write:
                repeat = readers is None and last == (pid, own)
            else:
                repeat = readers is not None and readers.get(pid) == own
            if repeat:
                return

        # The rewritten window also takes in a neighbour that ends at lo
        # or starts at hi, so equal states merge across the edges.
        w0 = first - 1 if first and ends[first - 1] == lo else first
        w1 = stop + 1 if stop < len(starts) and starts[stop] == hi else stop
        pieces: list[tuple[int, int, RunState]] = []
        if w0 < first:
            pieces.append((starts[w0], lo, states[w0]))
        elif first < stop and starts[first] < lo:
            pieces.append((starts[first], lo, states[first]))
        if write:
            pieces.append((lo, hi, ((pid, own), None)))
        else:
            pieces += self._read_pieces(pid, own, lo, hi, first, stop)
        if w1 > stop:
            pieces.append((hi, ends[stop], states[stop]))
        elif first < stop and ends[stop - 1] > hi:
            pieces.append((hi, ends[stop - 1], states[stop - 1]))

        new_starts: list[int] = []
        new_ends: list[int] = []
        new_states: list[RunState] = []
        for start, end, state in pieces:
            if new_states and _same_state(new_states[-1], state):
                new_ends[-1] = end
            else:
                new_starts.append(start)
                new_ends.append(end)
                new_states.append(state)
        starts[w0:w1] = new_starts
        ends[w0:w1] = new_ends
        states[w0:w1] = new_states

    def _read_pieces(
        self, pid: Pid, own: int, lo: int, hi: int, first: int, stop: int
    ) -> list[tuple[int, int, RunState]]:
        """``[lo, hi)`` after a read by ``pid`` at epoch ``own``: each of
        the overlapped runs ``first..stop`` with ``readers[pid] = own``
        (copy-on-write — runs share reader dicts), the gaps filled in."""
        starts, ends, states = self._starts, self._ends, self._states
        fresh: RunState = (None, {pid: own})
        pieces = []
        at = lo
        old: RunState | None = None
        new = fresh
        for k in range(first, stop):
            start = max(starts[k], lo)
            if at < start:
                pieces.append((at, start, fresh))
            if states[k] is not old:
                old = states[k]
                readers = old[1]
                if readers is None:
                    new = (old[0], fresh[1])
                elif readers.get(pid) == own:
                    new = old
                else:
                    new = (old[0], {**readers, pid: own})
            at = min(ends[k], hi)
            pieces.append((start, at, new))
        if at < hi:
            pieces.append((at, hi, fresh))
        return pieces

    def _report(
        self, kind: str, word: int, accessor: Pid, other: Pid,
        other_epoch: int, node_id: int,
    ) -> None:
        key = (kind, word, accessor, other)
        if key in self._reported:
            return
        self._reported.add(key)
        report = RaceReport(
            kind=kind,
            addr=word,
            time=self.sim.now,
            accessor=accessor,
            other=other,
            other_epoch=other_epoch,
            sync_log=list(self.sync_log),
        )
        if self._benign_label(word) is not None:
            # Declared and allowlisted: count it, keep it inspectable,
            # but out of the violation namespace.
            self.suppressed.append(report)
            self.nodes[node_id].counters.inc("race.suppressed")
            return
        self.races.append(report)
        self.nodes[node_id].counters.inc("violation.race")


class TrackedMemory:
    """A :class:`~repro.svm.address_space.SharedAddressSpace` proxy that
    reports application accesses to the race detector.

    One proxy exists per (process, node) pair —
    :attr:`repro.api.ivy.IvyProcessContext.mem` hands it out in place of
    the raw address space, so applications and synchronisation
    primitives are instrumented without changing a line of their code.
    Accesses are recorded when the accessor generator is *created*,
    which the caller immediately drives; the recording therefore falls
    between the same synchronisation operations as the access itself.
    """

    def __init__(
        self,
        inner: "SharedAddressSpace",
        detector: RaceDetector,
        pid: Pid,
        node_id: int,
    ) -> None:
        self._inner = inner
        self._detector = detector
        self._pid = pid
        self._node_id = node_id

    def __getattr__(self, name: str) -> Any:
        # layout, counters, protocol, ... — anything not instrumented.
        return getattr(self._inner, name)

    # -- reads ----------------------------------------------------------

    def _track(self, addr: int, nbytes: int, write: bool) -> None:
        self._detector.on_access(
            self._pid, addr, nbytes, write=write, node_id=self._node_id
        )

    def read_bytes(self, addr: int, nbytes: int) -> Generator[Any, Any, Any]:
        self._track(addr, nbytes, False)
        return self._inner.read_bytes(addr, nbytes)

    def read_array(self, addr: int, dtype: Any, count: int) -> Generator[Any, Any, Any]:
        self._track(addr, np.dtype(dtype).itemsize * count, False)
        return self._inner.read_array(addr, dtype, count)

    def fetch_array(self, addr: int, dtype: Any, count: int) -> Generator[Any, Any, Any]:
        self._track(addr, np.dtype(dtype).itemsize * count, False)
        return self._inner.fetch_array(addr, dtype, count)

    def read_f64(self, addr: int) -> Generator[Any, Any, Any]:
        self._track(addr, 8, False)
        return self._inner.read_f64(addr)

    def read_i64(self, addr: int) -> Generator[Any, Any, Any]:
        self._track(addr, 8, False)
        return self._inner.read_i64(addr)

    # -- writes ---------------------------------------------------------

    def write_bytes(self, addr: int, data: Any) -> Generator[Any, Any, Any]:
        # The inner write flattens an array to one byte per element.
        flat = isinstance(data, (bytes, bytearray))
        self._track(addr, len(data) if flat else np.asarray(data).size, True)
        return self._inner.write_bytes(addr, data)

    def write_array(self, addr: int, values: Any) -> Generator[Any, Any, Any]:
        self._track(addr, np.asarray(values).nbytes, True)
        return self._inner.write_array(addr, values)

    def store_array(self, addr: int, values: Any) -> Generator[Any, Any, Any]:
        self._track(addr, np.asarray(values).nbytes, True)
        return self._inner.store_array(addr, values)

    def write_f64(self, addr: int, value: float) -> Generator[Any, Any, Any]:
        self._track(addr, 8, True)
        return self._inner.write_f64(addr, value)

    def write_i64(self, addr: int, value: int) -> Generator[Any, Any, Any]:
        self._track(addr, 8, True)
        return self._inner.write_i64(addr, value)

    # -- synchronisation ------------------------------------------------

    def atomic_update(
        self, addr: int, nbytes: int, fn: Callable[[np.ndarray], Any]
    ) -> Generator[Any, Any, Any]:
        """Wrap the mutator so the release/acquire edge is taken while
        the page's entry lock is held — the only point where the
        detector's edge order provably matches execution order."""
        detector = self._detector
        pid = self._pid
        detector.register_sync_range(addr, nbytes)

        def ordered(view: np.ndarray) -> Any:
            detector.on_acquire(pid, addr)
            try:
                return fn(view)
            finally:
                detector.on_release(pid, addr)

        return self._inner.atomic_update(addr, nbytes, ordered)
