"""Systematic schedule exploration: a model checker for the protocols.

The simulator is deterministic, so the only nondeterminism a distributed
schedule has in this model is the *order of events tied at one tick*
(`repro.sim.kernel` docstring).  This module turns that tie-break into a
controlled choice point and drives small protocol configurations (2-4
nodes, 1-3 pages, scripted read/write/chown workloads) through many
interleavings, checking every one of them with the coherence oracle,
the deadlock detector and the final-state invariant sweep.

A *schedule* is a prescription: a list of choice indices consumed one
per choice point, in order.  Index 0 is always the event with the lowest
sequence number — the one an uncontrolled run would fire — so the empty
prescription reproduces the default schedule exactly, and any prefix of
choices extends deterministically with defaults.  That representation
makes schedules trivially replayable and shrinkable: a violating run is
delta-debugged down to the minimal non-default choices that still
trigger the violation, then saved as a JSONL artifact that
``python -m repro.analysis replay-schedule`` re-executes.

Three exploration strategies:

- :func:`explore_dfs` — exhaustive depth-first enumeration of the
  schedule tree, optionally pruned with sleep sets over the statically
  certified independence relation (:func:`certified_relation`: two
  same-tick message deliveries commute only where the effect analysis
  proved it; everything else is assumed to conflict).  The reduction is
  sound for safety properties:
  it only skips an interleaving when an equivalent one — same happens-
  before order between dependent events — is explored.
- :func:`explore_pct` — randomized PCT-style priority sampling: each
  run assigns random priorities to event classes and demotes the top
  class at a few random change points, which probes deep orderings that
  stepwise-random walks rarely reach.
- :func:`explore_delay` — bounded delay injection: deterministically
  drops the k-th ring frame (via :attr:`TokenRing.drop_policy`), forcing
  the transport's retransmission path and the message reorderings that
  come with a 500 ms timeout recovery.

All strategies report results as an :class:`ExplorationResult`; any
violating schedule is captured as a :class:`Counterexample`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import random
import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Generator,
    Iterable,
    NamedTuple,
    Sequence,
)

from repro.analysis.violation import InvariantViolation
from repro.api.cluster import Cluster
from repro.config import MILLISECOND, ClusterConfig, ConfigError
from repro.exps.parallel import fork_map, worker_count
from repro.net.packet import Message, extractor_errors, parse_delivery_label
from repro.net.transport import TransportError
from repro.obs.jsonl import read_jsonl, write_jsonl
from repro.sim.kernel import DeadlockError, PendingEvent, Scheduler
from repro.sim.process import Effect, Sleep, Task, TaskFailure
from repro.svm.protocol import ProtocolError, _protocol_classes

__all__ = [
    "Scenario",
    "ChoicePoint",
    "RecordingScheduler",
    "PctScheduler",
    "RunResult",
    "Counterexample",
    "ExplorationResult",
    "run_scenario",
    "explore_dfs",
    "explore_pct",
    "explore_delay",
    "minimize_schedule",
    "save_counterexamples",
    "load_artifact",
    "replay_artifact",
    "WORKLOADS",
    "MUTATIONS",
    "CertifiedIndependence",
    "certified_relation",
]

#: Page size used by all exploration scenarios (the paper's conjectured
#: small page; keeps page-crossing workloads cheap).
PAGE_SIZE = 256

#: Default per-run event budget.  A scripted scenario finishes in a few
#: hundred events; the budget only bounds runaway schedules (a run that
#: exhausts it is reported as status "budget", never silently dropped).
DEFAULT_MAX_EVENTS = 50_000


# ----------------------------------------------------------------------
# scenarios


@dataclass(frozen=True)
class Scenario:
    """One model-checking configuration: topology + scripted workload."""

    algorithm: str = "dynamic"
    nodes: int = 2
    pages: int = 1
    workload: str = "rw"
    seed: int = 1988
    #: Optional fault injection (a key of :data:`MUTATIONS`), applied by
    #: the workload mid-run to prove the explorer catches seeded bugs.
    mutation: str | None = None
    #: Dynamic manager hint-broadcast period (``SvmConfig.
    #: dynamic_broadcast_period``); > 0 makes every Mth ownership
    #: transfer broadcast a hint refresh, whose fan-out deliveries are
    #: the richest source of same-tick ties.
    hint_period: int = 0
    #: Network backend the scenario runs on (``FabricConfig.backend``).
    #: The explorer is medium-agnostic — labels, drop numbering and the
    #: oracle work identically — but the *tie structure* differs: the
    #: switched fabric's concurrent links produce same-tick deliveries
    #: the serialising ring cannot.
    fabric: str = "ring"

    def to_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "nodes": self.nodes,
            "pages": self.pages,
            "workload": self.workload,
            "seed": self.seed,
            "mutation": self.mutation,
            "hint_period": self.hint_period,
            "fabric": self.fabric,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Scenario":
        return cls(
            algorithm=raw["algorithm"],
            nodes=int(raw["nodes"]),
            pages=int(raw["pages"]),
            workload=raw["workload"],
            seed=int(raw.get("seed", 1988)),
            mutation=raw.get("mutation"),
            hint_period=int(raw.get("hint_period", 0)),
            fabric=raw.get("fabric", "ring"),
        )


@functools.cache
def _cluster_config(scenario: Scenario) -> ClusterConfig:
    """The scenario's cluster configuration: the same frozen value for
    every schedule of a sweep, so built once, not once per schedule.

    Building it is also where a scenario is validated — the first thing
    every run and every sweep does, before a cluster or a worker exists:
    a name the system does not provide is a :class:`ConfigError` with
    the known names and the likely typo, not a ``KeyError`` from
    wherever the name is first looked up; so is a sweep over no page."""
    named: list[tuple[str, str, Iterable[str]]] = [
        ("svm.algorithm", scenario.algorithm, _protocol_classes()),
        ("scenario.workload", scenario.workload, WORKLOADS),
    ]
    if scenario.mutation:
        named.append(("scenario.mutation", scenario.mutation, MUTATIONS))
    for field_name, value, known in named:
        if value not in known:
            raise ConfigError.unknown(field_name, value, known)
    if scenario.pages < 1:  # a sweep over no page checks nothing
        raise ConfigError("scenario.pages", scenario.pages, ("an integer >= 1",))
    return ClusterConfig(
        nodes=scenario.nodes, seed=scenario.seed, checker=True
    ).with_svm(
        algorithm=scenario.algorithm,
        page_size=PAGE_SIZE,
        shared_size=PAGE_SIZE * 64,
        dynamic_broadcast_period=scenario.hint_period,
    ).with_fabric(backend=scenario.fabric)


def _check_limits(max_events: int, max_schedules: int = 1, samples: int = 0) -> None:
    """A strategy's run limits, checked before its first run: every run
    may fire at least one event, every sweep record at least one
    schedule; PCT may sample nothing beyond its probe run."""
    for name, value, floor in (
        ("max_events", max_events, 1),
        ("max_schedules", max_schedules, 1),
        ("samples", samples, 0),
    ):
        if value < floor:
            raise ConfigError(name, value, (f"an integer >= {floor}",))


def _build_cluster(scenario: Scenario) -> Cluster:
    return Cluster(_cluster_config(scenario))


def _addr(cluster: Cluster, page: int, slot: int) -> int:
    """Word ``slot`` of shared page ``page`` (distinct word per node, so
    scripted workloads race on pages — the protocol's job — while the
    application-level values stay well-defined)."""
    return cluster.config.svm.shared_base + page * PAGE_SIZE + slot * 8


# Each workload factory returns one generator per node; the harness
# spawns them all at t=0 so their interleaving is entirely up to the
# scheduler under test.

WorkloadFactory = Callable[
    [Cluster, Scenario], "list[tuple[str, Generator[Effect, Any, Any]]]"
]


def _workload_rw(cluster: Cluster, scenario: Scenario):
    """Every node writes its own word of every page, then reads its
    right neighbour's word.  Over the CI sweeps (op coverage is pinned in
    ``tests/analysis/test_explore_cost.py``) it delivers ``svm.write``
    everywhere — write faults and ownership migration contended on every
    page — ``svm.locate`` under the broadcast manager, and ``svm.read``
    from 3 nodes / 2 pages or 4 nodes / 1 page up (smaller: each node
    still owns the page when it reads); never ``svm.inv``."""

    def body(n: int):
        for page in range(scenario.pages):
            yield from cluster.node(n).mem.write_i64(
                _addr(cluster, page, n), n * 100 + page
            )
        for page in range(scenario.pages):
            yield from cluster.node(n).mem.read_i64(
                _addr(cluster, page, (n + 1) % scenario.nodes)
            )

    return [(f"rw-{n}", body(n)) for n in range(scenario.nodes)]


def _workload_chown(cluster: Cluster, scenario: Scenario):
    """Every node takes data-less ownership of every page, then writes
    its own word.  Over the CI sweeps (one page) it delivers ``svm.chown``
    only, plus ``svm.hint`` with a ``hint_period``: each write finds the
    page already owned, so chown requests contend with each other, not
    with write faults."""

    def body(n: int):
        for page in range(scenario.pages):
            pid = cluster.layout.page_of(_addr(cluster, page, 0))
            yield from cluster.node(n).protocol.take_ownership(pid)
            yield from cluster.node(n).mem.write_i64(
                _addr(cluster, page, n), n + 1
            )

    return [(f"chown-{n}", body(n)) for n in range(scenario.nodes)]


def _workload_mixed(cluster: Cluster, scenario: Scenario):
    """Node 0 runs the chown script, everyone else the rw script.
    Over the CI sweep (one page) node 0, the page's initial owner, takes
    ownership locally, so only ``svm.write`` is delivered: the others'
    write faults racing node 0's chown-then-write."""
    tasks = _workload_chown(cluster, scenario)[:1]
    tasks.extend(_workload_rw(cluster, scenario)[1:])
    return tasks


def _workload_mutate_upgrade(cluster: Cluster, scenario: Scenario):
    """Node 0 writes a page, pauses long enough for node 1's concurrent
    read to be granted a copy, corrupts its own page-table entry with
    ``scenario.mutation``, then writes again.  Node 1 never takes
    ownership, so node 0's second write always upgrades in place and
    multicasts invalidations from the corrupted copy set — the oracle
    must flag it on *every* schedule.  Requires ``nodes >= 3`` so the
    ghost copy-set member is a live node.  Delivers ``svm.read`` and
    ``svm.inv`` (node 0's writes are local) — the one workload that
    reaches the invalidation server.
    """
    mutate = MUTATIONS[scenario.mutation] if scenario.mutation else None
    page0 = cluster.layout.page_of(_addr(cluster, 0, 0))

    def writer():
        yield from cluster.node(0).mem.write_i64(_addr(cluster, 0, 0), 1)
        # One remote read fault takes a few ms; 20 ms guarantees the
        # reader's copy is installed before the corrupted upgrade.
        yield Sleep(20 * MILLISECOND)
        if mutate is not None:
            mutate(cluster, page0)
        yield from cluster.node(0).mem.write_i64(_addr(cluster, 0, 0), 2)

    def reader():
        yield from cluster.node(1).mem.read_i64(_addr(cluster, 0, 1))

    return [("mutate-writer", writer()), ("mutate-reader", reader())]


WORKLOADS: dict[str, WorkloadFactory] = {
    "rw": _workload_rw,
    "chown": _workload_chown,
    "mixed": _workload_mixed,
    "mutate-upgrade": _workload_mutate_upgrade,
}

#: Seeded protocol-state corruptions (same faults as the PR 1 oracle
#: mutation tests), keyed by name for the CLI and artifacts.
MUTATIONS: dict[str, Callable[[Cluster, int], None]] = {
    # A ghost copy-set member: the owner will invalidate a node that was
    # never granted a copy (oracle rule "invalidate-nonholder").
    "ghost-copyset": lambda cluster, page: (
        cluster.node(0).table.entry(page).copy_set.add(2)
    ),
    # Drop a real reader from the owner's copy set: a later upgrade
    # skips its invalidation, leaving a stale readable copy (rule
    # "swmr" / "stale-copy" at quiescence).
    "lost-copyset": lambda cluster, page: (
        cluster.node(0).table.entry(page).copy_set.discard(1)
    ),
}


# ----------------------------------------------------------------------
# schedulers


@dataclass(frozen=True)
class ChoicePoint:
    """One consulted tie: the labels offered and the index fired."""

    time: int
    labels: tuple[str | None, ...]
    chosen: int


class RecordingScheduler(Scheduler):
    """Replays a prescribed choice list, then defaults; records a log.

    Choices beyond the prescription are index 0 (the default seq order),
    so any prefix extends deterministically.  A prescribed index that
    exceeds the live batch (possible mid-minimization, when zeroing an
    earlier choice changes how later ticks batch) clamps to the last
    event rather than failing — every choice list stays executable.

    With a ``sleep`` set (the DFS passes one per branch, with the
    ``relation`` that built it), the default pick beyond the
    prescription skips events whose label is asleep — an equivalent
    interleaving that fires them earlier was already explored — and the
    set evolves online: a sleeper is dropped the moment a dependent
    event fires.  The recorded log stays a plain
    choice list, so any run found this way replays via prescription
    alone, without the sleep set.
    """

    def __init__(
        self,
        prescribed: Sequence[int] = (),
        sleep: Iterable[str] = (),
        relation: Relation | None = None,
    ) -> None:
        self.prescribed = tuple(prescribed)
        self.log: list[ChoicePoint] = []
        self._sleep = set(sleep)
        #: With no relation nothing commutes: a sleep set then lasts one
        #: choice point, which is as far as it is valid unaided.
        self._relation: Relation = relation or (lambda a, b: False)

    def _pick(self, now: int, events: Sequence[PendingEvent]) -> int:
        cursor = len(self.log)
        if cursor < len(self.prescribed):
            return min(self.prescribed[cursor], len(events) - 1)
        if self._sleep:
            labels = [e.label for e in events]
            for i, label in enumerate(labels):
                sleeping = (
                    label is not None
                    and label in self._sleep
                    and labels.count(label) == 1
                )
                if not sleeping:
                    return i
            # Every live event is asleep: explored interleavings already
            # cover this state; fire the default to make progress.
        return 0

    def choose(self, now: int, events: Sequence[PendingEvent]) -> int:
        index = self._pick(now, events)
        if self._sleep and len(self.log) >= len(self.prescribed):
            chosen = events[index].label
            self._sleep = {z for z in self._sleep if self._relation(z, chosen)}
        self.log.append(ChoicePoint(now, tuple(e.label for e in events), index))
        return index


def _label_key(label: str | None) -> str:
    """Collapse a label to its event class: message ids are volatile
    (they differ between schedules), so PCT priorities attach to the
    stable ``deliver:n1:p0:req:svm.read:o1`` part."""
    return re.sub(r"\.\d+$", "", label) if label else "?"


class PctScheduler(RecordingScheduler):
    """PCT-style randomized priority scheduler.

    Event classes get random priorities on first sight; every choice
    fires the highest-priority live event.  At each of the ``d - 1``
    change points the currently-top class is demoted below everything,
    which is what lets a run of depth ``n`` hit bugs that need ``d``
    specific ordering inversions with probability >= 1/(n * k^(d-1)).
    The log it records is an ordinary choice list, so a violating sample
    replays through a plain :class:`RecordingScheduler`.
    """

    def __init__(self, rng: random.Random, change_points: Iterable[int] = ()) -> None:
        super().__init__(())
        self.rng = rng
        self.change_points = frozenset(change_points)
        self._prio: dict[str, float] = {}

    def _pick(self, now: int, events: Sequence[PendingEvent]) -> int:
        keys = [_label_key(e.label) for e in events]
        for key in keys:
            if key not in self._prio:
                self._prio[key] = self.rng.random()
        if len(self.log) in self.change_points:
            top = max(self._prio, key=lambda k: self._prio[k])
            self._prio[top] -= 1.0
        return max(range(len(events)), key=lambda i: (self._prio[keys[i]], -i))


# ----------------------------------------------------------------------
# one controlled run


class _DropCounter:
    """Deterministic :attr:`Fabric.drop_policy`: numbers every frame
    delivery attempt and drops the prescribed ones (identically on any
    backend — both fabrics consult the hook once per (msg, target) in
    the same deterministic target order)."""

    def __init__(self, drops: Iterable[int]) -> None:
        self.drops = frozenset(drops)
        self.attempts = 0

    def __call__(self, msg: Message, target: int) -> bool:
        attempt = self.attempts
        self.attempts += 1
        return attempt in self.drops


@dataclass
class RunResult:
    """Outcome of one schedule: classification + enough to replay it."""

    status: str  # "ok" | "violation" | "deadlock" | "error" | "budget"
    rule: str | None
    detail: str
    log: tuple[ChoicePoint, ...]
    fingerprint: str | None
    events: int
    time: int
    #: Ring delivery attempts observed (numbering space for drop lists).
    attempts: int

    @property
    def choices(self) -> tuple[int, ...]:
        return tuple(cp.chosen for cp in self.log)


def _fingerprint(cluster: Cluster) -> str:
    """Canonical final protocol state: per (page, node) access mode,
    ownership, copy set and probOwner hint.  Transient bookkeeping
    (invalidation epochs, transfer counts) is deliberately excluded —
    two schedules that agree on this are coherence-equivalent."""
    pages: set[int] = set()
    for node in cluster.nodes:
        pages.update(node.table.known_entries())
    state = []
    for page in sorted(pages):
        for node in cluster.nodes:
            entry = node.table.entry(page)
            state.append(
                (
                    page,
                    node.node_id,
                    entry.access.name,
                    entry.is_owner,
                    sorted(entry.copy_set),
                    entry.prob_owner,
                )
            )
    return json.dumps(state, separators=(",", ":"))


def run_scenario(
    scenario: Scenario,
    choices: Sequence[int] = (),
    drops: Sequence[int] = (),
    max_events: int = DEFAULT_MAX_EVENTS,
    scheduler: RecordingScheduler | None = None,
    sleep: Iterable[str] = (),
    relation: Relation | None = None,
) -> RunResult:
    """Execute ``scenario`` once under a controlled schedule.

    ``choices`` prescribes same-tick orderings (defaults after the
    prescription runs out); ``drops`` names frame delivery attempts to
    lose (forcing retransmission); ``sleep`` seeds the scheduler's
    sleep set (DFS partial-order reduction) and ``relation`` is the
    independence relation that built it and evolves it.  Every run is checked
    three ways: the online oracle during execution,
    :class:`DeadlockError` on queue drain, and the quiescent sweep
    (oracle + global invariants) after a clean finish; then the cluster
    is closed.
    """
    cluster = _build_cluster(scenario)
    sched = (
        scheduler
        if scheduler is not None
        else RecordingScheduler(choices, sleep=sleep, relation=relation)
    )
    cluster.sim.scheduler = sched
    dropper = _DropCounter(drops)
    cluster.fabric.drop_policy = dropper

    factory = WORKLOADS[scenario.workload]
    tasks: list[Task] = [
        cluster.spawn_system(gen, name) for name, gen in factory(cluster, scenario)
    ]

    status, rule, detail = "ok", None, ""
    try:
        cluster.sim.run(max_events=max_events)
        if not all(task.done for task in tasks):
            status = "budget"
            detail = f"stopped after {max_events} events"
    except InvariantViolation as violation:
        status, rule, detail = "violation", violation.rule, str(violation)
    except TaskFailure as failure:
        cause = failure.__cause__
        if isinstance(cause, InvariantViolation):
            status, rule, detail = "violation", cause.rule, str(cause)
        else:
            status, rule = "error", type(cause).__name__ if cause else "TaskFailure"
            detail = str(failure)
    except DeadlockError as deadlock:
        status, detail = "deadlock", str(deadlock)
    except (ProtocolError, TransportError, AssertionError) as exc:
        status, rule, detail = "error", type(exc).__name__, str(exc)

    if status == "ok":
        try:
            cluster.oracle.check_quiescent()
            cluster.check_coherence_invariants()
        except InvariantViolation as violation:
            status, rule, detail = "violation", violation.rule, str(violation)
        except AssertionError as exc:
            status, rule, detail = "violation", "final-state", str(exc)

    result = RunResult(
        status=status,
        rule=rule,
        detail=detail,
        log=tuple(sched.log),
        fingerprint=_fingerprint(cluster) if status == "ok" else None,
        events=cluster.sim.events_executed,
        time=cluster.sim.now,
        attempts=dropper.attempts,
    )
    cluster.close()  # freed here, not piled up for the cycle collector
    return result


# ----------------------------------------------------------------------
# independence (for partial-order reduction)

def _delivery_footprint(label: str | None) -> tuple[int, int, str] | None:
    """(target node, page, op) for a page-attributed delivery label,
    else None.  Labels that do not parse — task steps, wakes, retransmit
    timers, deliveries whose payload has no page (``p?``) — get no
    footprint and are treated as conflicting with everything.  Parsing
    goes through :func:`repro.net.packet.parse_delivery_label`, the
    single owner of the label grammar."""
    parsed = parse_delivery_label(label)
    if parsed is None or parsed.page is None:
        return None
    return (parsed.target, parsed.page, parsed.op)


#: An independence relation between same-tick event labels.
Relation = Callable[[str | None, str | None], bool]


class CertifiedIndependence:
    """Independence relation backed by the statically certified
    commutativity matrix (:mod:`repro.analysis.static.commute`).

    Two same-tick deliveries commute only where the effect analysis
    proved it:

    - *different node, different page*: both ops must be certified
      page-attributed (the page their op-table row declares provably
      names every page-keyed state access);
    - *different node, same page*: both ops must be in the proven
      subset of the ops whose row claims ``fanout``;
    - *same node, different page*: the pair must be in the matrix's
      ``same_node_commutes``;
    - anything unattributed (including every op the analysis demoted)
      conflicts with everything.
    """

    name = "certified"

    def __init__(self, entry: dict[str, Any]) -> None:
        ops = entry.get("ops", {})
        self.attributed = frozenset(
            op for op, info in ops.items() if info.get("attributed")
        )
        self.fanout_safe = frozenset(entry.get("fanout_safe", ()))
        self.same_node = frozenset(
            (a, b) for a, b in entry.get("same_node_commutes", ())
        )

    def __call__(self, a: str | None, b: str | None) -> bool:
        fa, fb = _delivery_footprint(a), _delivery_footprint(b)
        if fa is None or fb is None:
            return False
        if fa[2] not in self.attributed or fb[2] not in self.attributed:
            return False
        if fa[0] != fb[0]:
            if fa[1] != fb[1]:
                return True
            return fa[2] in self.fanout_safe and fb[2] in self.fanout_safe
        if fa[1] == fb[1]:
            return False
        return (min(fa[2], fb[2]), max(fa[2], fb[2])) in self.same_node


@functools.cache
def _checkout_matrix() -> dict[str, Any]:
    """The commutativity matrix of the protocol source this process
    imported: a pure function of the checkout, so the static analysis
    (~0.3 s) runs once per process however many sweeps use it."""
    from repro.analysis.static.commute import build_matrix

    return build_matrix()


def certified_relation(
    algorithm: str, matrix: dict[str, Any] | str | None = None
) -> CertifiedIndependence:
    """The certified independence relation for ``algorithm``.

    ``matrix`` is a matrix dict, a path to one (as written by
    ``python -m repro.analysis.static --commute-matrix``), or None for
    the static analysis of the current checkout (run once per process)."""
    if matrix is None:
        matrix = _checkout_matrix()
    elif isinstance(matrix, str):
        with open(matrix, encoding="utf-8") as fh:
            matrix = json.load(fh)
    algorithms = matrix.get("algorithms", {})
    if algorithm not in algorithms:
        raise KeyError(
            f"no commutativity matrix entry for algorithm {algorithm!r}; "
            f"have {sorted(algorithms)}"
        )
    return CertifiedIndependence(algorithms[algorithm])


# ----------------------------------------------------------------------
# exploration strategies


@dataclass(frozen=True)
class Counterexample:
    """A schedule that violated a check, in replayable form."""

    choices: tuple[int, ...]
    drops: tuple[int, ...]
    status: str
    rule: str | None
    detail: str
    #: Which independence relation found it ("certified" | a custom
    #: relation's name; "handcoded" in artifacts saved before the
    #: certified relation became the only one) — provenance for triage.
    relation: str = "certified"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "schedule",
            "choices": list(self.choices),
            "drops": list(self.drops),
            "status": self.status,
            "rule": self.rule,
            "detail": self.detail,
            "relation": self.relation,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "Counterexample":
        return cls(
            choices=tuple(int(c) for c in raw["choices"]),
            drops=tuple(int(d) for d in raw.get("drops", ())),
            status=raw["status"],
            rule=raw.get("rule"),
            detail=raw.get("detail", ""),
            relation=raw.get("relation", "certified"),
        )


class _Visit(NamedTuple):
    """One executed schedule, as the DFS hands it on to be recorded —
    from the loop next door or from a forked worker."""

    run: RunResult
    #: ``run.choices``, kept beside the run because :meth:`portable`
    #: drops the log they are read from.
    choices: tuple[int, ...]
    #: Extractor failures during this run alone (see
    #: :func:`_extractor_error_delta`); per run, not per sweep, so a
    #: truncated sweep counts exactly the runs it reports.
    extractor_errors: dict[str, int]
    #: Children of this run the sleep sets skipped.
    sleep_pruned: int

    def portable(self) -> "_Visit":
        """Without the choice log — the offered labels are most of a
        run's pickled size, and nothing reads them once the run's
        children are known."""
        return self._replace(run=dataclasses.replace(self.run, log=()))


@dataclass
class ExplorationResult:
    scenario: Scenario
    strategy: str
    schedules: int = 0
    #: Simulator events executed over all schedules (``RunResult.events``).
    events: int = 0
    statuses: dict[str, int] = field(default_factory=dict)
    violations: list[Counterexample] = field(default_factory=list)
    #: Final-state fingerprints of all clean runs; POR soundness tests
    #: assert set-equality between reduced and full exploration.
    fingerprints: set[str] = field(default_factory=set)
    truncated: bool = False
    #: Children the DFS did not execute because the sleep sets showed an
    #: equivalent interleaving already explored: what partial-order
    #: reduction saved *directly* (each skipped child is the root of a
    #: subtree that was never enumerated, so the full tree is larger
    #: than ``schedules + sleep_pruned``).
    sleep_pruned: int = 0
    #: Independence relation the exploration pruned with.
    relation: str = "certified"
    #: Payloads that did not fit their op's declared page path during
    #: this exploration, keyed by op (surfaced by the CLI as
    #: ``explore.extractor_error``).  Each such delivery is demoted to
    #: ``p?`` — still sound, but it silently weakens POR, so any nonzero
    #: count here deserves a look.
    extractor_errors: dict[str, int] = field(default_factory=dict)
    #: Worker processes forked to execute schedules; 0 when every one
    #: ran in the calling process.  How the sweep was run, not what it
    #: found: results compare equal across worker counts.
    workers: int = field(default=0, compare=False)

    def record(self, run: RunResult, choices: Sequence[int], drops: Sequence[int] = ()) -> None:
        self.schedules += 1
        self.events += run.events
        self.statuses[run.status] = self.statuses.get(run.status, 0) + 1
        if run.fingerprint is not None:
            self.fingerprints.add(run.fingerprint)
        if run.status != "ok":
            self.violations.append(
                Counterexample(
                    choices=tuple(choices),
                    drops=tuple(drops),
                    status=run.status,
                    rule=run.rule,
                    detail=run.detail,
                    relation=self.relation,
                )
            )

    def _record_visit(self, visit: _Visit) -> None:
        self.record(visit.run, visit.choices)
        self.sleep_pruned += visit.sleep_pruned
        for op, count in visit.extractor_errors.items():
            self.extractor_errors[op] = self.extractor_errors.get(op, 0) + count

    @property
    def clean(self) -> bool:
        return not self.violations and not self.truncated


def _extractor_error_delta(before: dict[str, int]) -> dict[str, int]:
    """Per-op extractor failures accrued since the ``before`` snapshot.

    The counts live in a process-wide registry (`repro.net.packet`), so
    each caller diffs against its own start rather than resetting —
    concurrent or repeated explorations never clobber each other."""
    return {
        op: count - before.get(op, 0)
        for op, count in extractor_errors().items()
        if count - before.get(op, 0) > 0
    }


#: One DFS stack entry: the prescribed prefix and the sleep set at its
#: end.  Everything below it is a function of the entry alone, which is
#: what makes subtrees independent work.
_Entry = tuple[tuple[int, ...], frozenset[str]]
_ROOT: _Entry = ((), frozenset())

#: Unexplored subtrees a parallel sweep is split into before anything is
#: forked.  A constant, not a function of ``jobs``: the part of the tree
#: the coordinating process executes itself is then the same on every
#: host.  Chosen on the four ``checker_stack`` sweeps (4,032 schedules)
#: by replaying their subtree sizes through the in-order hand-out — the
#: longest worker's schedules plus the coordinator's, over the total,
#: for 2 / 4 / 8 workers: 16 -> 0.572 / 0.396 / 0.320 (8 schedules in
#: the coordinator), 32 -> 0.542 / 0.319 / 0.200 (15), **64 -> 0.529 /
#: 0.292 / 0.179 (33)**, 128 -> 0.526 / 0.285 / 0.163 (77), 256 -> 0.531
#: / 0.296 / 0.179 (219).  Past 64 the largest subtree is no longer
#: what the last worker waits for and the coordinator's serial share
#: starts to show.  On this repo's two-core host the clock cannot tell
#: 32, 64 and 128 apart (1.51 / 1.51 / 1.54 s against 2.47 s in one
#: process, medians of 8 interleaved rounds; 16: 1.58 s).
FRONTIER = 64


def _step(
    scenario: Scenario,
    por: bool,
    rel: Relation,
    max_events: int,
    entry: _Entry,
) -> tuple[_Visit, list[_Entry]]:
    """Execute one stack entry: the run, and the entries of its children
    in the order the DFS pushes them (it pops them in reverse)."""
    prefix, sleep = entry
    errors_before = extractor_errors()
    run = run_scenario(
        scenario,
        choices=prefix,
        max_events=max_events,
        sleep=sleep if por else (),
        relation=rel,
    )
    taken = run.choices
    # Branch at every choice point the prefix did not already fix.
    children: list[tuple[int, int, _Entry]] = []
    pruned = 0
    current: set[str] = set(sleep)
    for i in range(len(prefix), len(run.log)):
        point = run.log[i]
        chosen_label = point.labels[point.chosen]
        explored: list[str | None] = [chosen_label]
        for j, label in enumerate(point.labels):
            if j == point.chosen:
                continue
            if (
                por
                and label is not None
                and label in current
                and point.labels.count(label) == 1
            ):
                pruned += 1  # an equivalent interleaving is already explored
                continue
            if por:
                inherited = current | {l for l in explored if l is not None}
                child_sleep = frozenset(
                    z for z in inherited if rel(z, label)
                )
            else:
                child_sleep = frozenset()
            children.append((i, j, (taken[:i] + (j,), child_sleep)))
            explored.append(label)
        if por:
            current = {z for z in current if rel(z, chosen_label)}
    # Pop order must be deepest-first (so the default run's subtree
    # finishes before its shallow siblings start — the order the
    # sleep sets were built for); within one point, low j first.
    children.sort(key=lambda c: (c[0], -c[1]))
    visit = _Visit(run, taken, _extractor_error_delta(errors_before), pruned)
    return visit, [child for _i, _j, child in children]


def _dfs(
    step: Callable[[_Entry], tuple[_Visit, list[_Entry]]],
    root: _Entry,
    limit: int,
    visit: Callable[[_Visit], None],
) -> bool:
    """The sequential sweep of the subtree under ``root``: ``visit``
    every schedule in pop order, at most ``limit`` of them.  True when
    the limit cut it short."""
    stack = [root]
    visited = 0
    while stack:
        if visited >= limit:
            return True
        seen, children = step(stack.pop())
        visit(seen)
        visited += 1
        stack.extend(children)
    return False


def _split(
    step: Callable[[_Entry], tuple[_Visit, list[_Entry]]], limit: int
) -> list[_Visit | _Entry]:
    """The sweep in sequential pop order with only the top of the tree
    executed: visits where the coordinating process ran a schedule,
    entries where a subtree is still unexplored.

    Expands the unexplored entry with the shortest prefix — subtree size
    grows with the choice points left to branch at, so that is the
    largest one — until :data:`FRONTIER` entries exist, or none (the
    sweep was too small to share), or ``limit`` schedules have run here
    (a tree that narrow gains nothing from workers either).  Handing out
    the root's own children instead gives subtrees of 1, 2, 2, 2, 8, 64,
    128, 256 and 256 schedules on the 768-schedule sweep, and two
    workers 0.70-0.78x of one process's time."""
    order: list[_Visit | _Entry] = [_ROOT]
    for _ in range(limit):
        unexplored = [
            (len(item[0]), at)
            for at, item in enumerate(order)
            if not isinstance(item, _Visit)
        ]
        if not unexplored or len(unexplored) >= FRONTIER:
            break
        _depth, at = min(unexplored)
        entry = order[at]
        assert not isinstance(entry, _Visit)
        seen, children = step(entry)
        order[at : at + 1] = [seen, *reversed(children)]
    return order


def explore_dfs(
    scenario: Scenario,
    por: bool = True,
    max_schedules: int = 10_000,
    max_events: int = DEFAULT_MAX_EVENTS,
    relation: Relation | None = None,
    jobs: int | None = None,
) -> ExplorationResult:
    """Exhaustive depth-first schedule enumeration.

    Stateless exploration in the default-follower style: each executed
    schedule is a prescribed prefix extended with default choices, and
    every non-default alternative at every choice point at or beyond the
    prefix spawns one child prefix — so every interleaving of the tree
    is executed exactly once.

    With ``por=True``, sleep sets prune: a child whose first divergence
    fires an event that is *independent* of everything explored from the
    same state is skipped, because some explored interleaving already
    covers its happens-before order.  Sleep sets propagate forward along
    a run (an event leaves the sleep set when a dependent event fires)
    and siblings inherit the labels their earlier siblings explored.
    Membership is only trusted when the label is unique in the batch —
    unlabeled or duplicated labels never prune.

    ``relation`` is the independence relation the sleep sets use
    (default: :func:`certified_relation` for the scenario's algorithm).

    ``jobs`` is how many processes execute schedules, as
    :func:`repro.exps.parallel.worker_count` settles it (default:
    ``REPRO_WORKERS``, else the CPUs this process may run on; one where
    forking is unsafe).  With one, this process runs the stack loop.
    With more, it executes the top of the tree itself (:func:`_split`),
    and :func:`repro.exps.parallel.fork_map` forks workers that each run
    the same loop on one unexplored subtree at a time; everything is
    recorded in the sequential pop order — so
    the result is equal for every ``jobs``, violations in the same list
    order, truncated or not.  (A truncated parallel sweep may *execute*
    schedules it does not report: each subtree is cut just past
    ``max_schedules`` and the subtrees in flight when the count is
    reached are thrown away.)  A sweep that never fills the frontier
    never forks.
    """
    _cluster_config(scenario)  # a bad scenario fails here, not in a worker
    _check_limits(max_events, max_schedules)
    rel = relation if relation is not None else certified_relation(scenario.algorithm)
    result = ExplorationResult(
        scenario=scenario,
        strategy="dfs",
        relation=getattr(rel, "name", getattr(rel, "__name__", "custom")),
    )
    step = functools.partial(_step, scenario, por, rel, max_events)
    workers = worker_count(jobs, FRONTIER, name="jobs")
    if workers == 1:
        result.truncated = _dfs(step, _ROOT, max_schedules, result._record_visit)
        return result

    def subtree(entry: _Entry) -> list[_Visit]:
        # One more than can be reported: the walk below then sees for
        # itself that there was more.
        visits: list[_Visit] = []
        _dfs(step, entry, max_schedules + 1, lambda seen: visits.append(seen.portable()))
        return visits

    order = _split(step, max_schedules)
    leaves = [item for item in order if not isinstance(item, _Visit)]
    workers = min(workers, len(leaves))
    with contextlib.closing(fork_map(subtree, leaves, workers)) as subtrees:
        for item in order:
            if isinstance(item, _Visit):
                visits = [item]
            else:
                visits = next(subtrees)  # the first one asked for forks them
                result.workers = workers if workers > 1 else 0
            for seen in visits:
                if result.schedules >= max_schedules:
                    result.truncated = True
                    return result
                result._record_visit(seen)
    return result


def explore_pct(
    scenario: Scenario,
    samples: int = 50,
    depth: int = 3,
    seed: int | None = None,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> ExplorationResult:
    """Randomized PCT-style sampling: ``samples`` independent runs, each
    with fresh class priorities and ``depth - 1`` random change points
    over the schedule length observed in a probe run."""
    _check_limits(max_events, samples=samples)
    result = ExplorationResult(scenario=scenario, strategy="pct")
    errors_before = extractor_errors()
    base_seed = scenario.seed if seed is None else seed
    probe = run_scenario(scenario, max_events=max_events)
    result.record(probe, probe.choices)
    horizon = max(len(probe.log), 1)
    for sample in range(samples):
        rng = random.Random(f"{base_seed}:{sample}")
        points = rng.sample(range(horizon), min(depth - 1, horizon))
        sched = PctScheduler(rng, points)
        run = run_scenario(
            scenario, max_events=max_events, scheduler=sched
        )
        # The recorded choices replay through a plain RecordingScheduler.
        result.record(run, run.choices)
    result.extractor_errors = _extractor_error_delta(errors_before)
    return result


def explore_delay(
    scenario: Scenario,
    pairs: bool = False,
    max_schedules: int = 10_000,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> ExplorationResult:
    """Bounded delay injection via the ring's deterministic drop hook.

    A probe run counts frame delivery attempts; then every single-drop
    schedule (and, with ``pairs=True``, every ordered pair) runs under
    the default event order.  Each drop forces the transport through its
    retransmission timeout, delaying one message by ~500 ms relative to
    its peers — a class of reordering the same-tick scheduler cannot
    produce, because it moves events *across* ticks.
    """
    _check_limits(max_events, max_schedules)
    result = ExplorationResult(scenario=scenario, strategy="delay")
    errors_before = extractor_errors()
    probe = run_scenario(scenario, max_events=max_events)
    result.record(probe, probe.choices)
    attempts = probe.attempts
    singles = list(range(attempts))
    combos: list[tuple[int, ...]] = [(i,) for i in singles]
    if pairs:
        combos.extend(
            (i, j) for i in singles for j in singles if i < j
        )
    for drops in combos:
        if result.schedules >= max_schedules:
            result.truncated = True
            break
        run = run_scenario(
            scenario, drops=drops, max_events=max_events
        )
        result.record(run, run.choices, drops)
    result.extractor_errors = _extractor_error_delta(errors_before)
    return result


# ----------------------------------------------------------------------
# counterexample minimization


def _strip(choices: Sequence[int]) -> tuple[int, ...]:
    """Trailing default choices are implied by the prescription model,
    so ``[1, 0, 0]`` and ``[1]`` denote the same schedule — strip them."""
    out = list(choices)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def minimize_schedule(
    scenario: Scenario,
    choices: Sequence[int],
    drops: Sequence[int] = (),
    max_events: int = DEFAULT_MAX_EVENTS,
) -> Counterexample:
    """Delta-debug a violating schedule to a minimal choice sequence.

    ddmin-style: repeatedly zero out chunks of the prescription (zeroing,
    not deleting — deleting would shift later choices onto different
    choice points) at halving granularity, keeping any candidate that
    still fails with the *same* status and rule; then drop injected
    frame losses one at a time.  The result is the schedule with the
    fewest non-default choices that still triggers the original failure.
    """
    baseline = run_scenario(scenario, choices, drops, max_events)
    if baseline.status == "ok":
        raise ValueError("cannot minimize a schedule that does not fail")
    target = (baseline.status, baseline.rule)

    def still_fails(cand: Sequence[int], cand_drops: Sequence[int]) -> bool:
        run = run_scenario(scenario, cand, cand_drops, max_events)
        return (run.status, run.rule) == target

    current = _strip(choices)
    chunk = max(len(current), 1)
    while chunk >= 1:
        i = 0
        while i < len(current):
            width = min(chunk, len(current) - i)
            candidate = _strip(
                current[:i] + (0,) * width + current[i + width :]
            )
            if candidate != current and still_fails(candidate, drops):
                current = candidate
            else:
                i += chunk
        if chunk == 1:
            break
        chunk //= 2

    kept_drops = list(drops)
    i = 0
    while i < len(kept_drops):
        candidate_drops = kept_drops[:i] + kept_drops[i + 1 :]
        if still_fails(current, candidate_drops):
            kept_drops = candidate_drops
        else:
            i += 1

    final = run_scenario(scenario, current, kept_drops, max_events)
    return Counterexample(
        choices=current,
        drops=tuple(kept_drops),
        status=final.status,
        rule=final.rule,
        detail=final.detail,
    )


# ----------------------------------------------------------------------
# replayable artifacts (JSON lines, repro.obs.jsonl)


def save_counterexamples(
    path: str,
    scenario: Scenario,
    counterexamples: Iterable[Counterexample],
    relation: str = "certified",
) -> int:
    """Write a replayable artifact: one scenario header line (stamped
    with the independence relation that explored it), then one line per
    violating schedule.  Returns the number of schedules."""
    header = {"kind": "scenario", **scenario.to_dict(), "relation": relation}
    schedules = [ce.to_dict() for ce in counterexamples]
    write_jsonl(path, [header, *schedules])
    return len(schedules)


def load_artifact(path: str) -> tuple[Scenario, list[Counterexample]]:
    scenario: Scenario | None = None
    schedules: list[Counterexample] = []
    for raw in read_jsonl(path):
        if raw.get("kind") == "scenario":
            scenario = Scenario.from_dict(raw)
        elif raw.get("kind") == "schedule":
            schedules.append(Counterexample.from_dict(raw))
        else:
            raise ValueError(f"unknown artifact line kind: {raw.get('kind')!r}")
    if scenario is None:
        raise ValueError(f"artifact {path} has no scenario header line")
    return scenario, schedules


def replay_artifact(
    path: str, max_events: int = DEFAULT_MAX_EVENTS
) -> list[tuple[Counterexample, RunResult]]:
    """Re-execute every schedule in an artifact; pairs each recorded
    counterexample with the result its replay produced (a reproduction
    succeeds when status and rule match the recording)."""
    scenario, schedules = load_artifact(path)
    return [
        (ce, run_scenario(scenario, ce.choices, ce.drops, max_events))
        for ce in schedules
    ]
