"""A multicast wakes only the stations it names — and nothing else moves.

The fabric schedules a delivery event only for the stations a targeted
frame names.  ``ReferenceFabric`` below is the behaviour it replaced:
every station the frame passes gets the event and throws the frame away
on arrival.  Every golden configuration is run both ways, on both
media, and must agree on everything except ``events_executed`` — which
must differ by exactly the number of frames the reference threw away.
That equality is the licence for the five lowered ``events_executed``
values in the golden fixtures (no ``time_ns`` moved).

The same runs pin each envelope's lifetime: once a run is over and the
cycle collector has run, the only live ``Message`` objects it built are
those a ``_Pending`` record or a sticky-forward reply-cache entry holds,
so anything that keeps envelopes past their use — a free list, a stale
event, a forgotten cache — fails here instead of growing host memory.
"""

from __future__ import annotations

import gc
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.apps.jacobi import JacobiApp
from repro.apps.pde3d import Pde3dApp
from repro.apps.tsp import TspApp
from repro.config import ClusterConfig
from repro.net.fabric.switched import SwitchedFabric
from repro.net.packet import BROADCAST, Message, delivery_label
from repro.net.fabric.ring import TokenRing


class ReferenceFabric:
    """Mix-in restoring the pre-filter send path: same addressing,
    counting, booking and per-station drop decisions, but every
    surviving station gets a delivery event and filters the frame when
    it lands (after recording the sender's load byte, as the transport
    did)."""

    filtered = 0

    def send(self, msg):
        self._check_addressing(msg)
        stats = self.stats
        stats.messages += 1
        if msg.dst == BROADCAST:
            stats.broadcasts += 1
            stations = [n for n in range(self.nnodes) if n != msg.src]
        else:
            stations = [msg.dst]
        drop_policy = self.drop_policy
        for station, arrival in zip(stations, self._book(msg, stations)):
            forced = drop_policy is not None and drop_policy(msg, station)
            if forced or (self._lossy and self._drop()):
                stats.lost_frames += 1
                continue
            self.sim.schedule_at_nocancel(
                arrival, self._deliver, station, msg,
                label=(delivery_label, station, msg),
            )

    def _deliver(self, target, msg):
        receiver = self._receivers[target]
        if msg.targets is not None and target not in msg.targets:
            self.filtered += 1
            receiver.__self__.load_hints[msg.src] = msg.load_hint
            return
        receiver(msg)


class ReferenceRing(ReferenceFabric, TokenRing):
    pass


class ReferenceSwitched(ReferenceFabric, SwitchedFabric):
    pass


REFERENCE = {TokenRing: ReferenceRing, SwitchedFabric: ReferenceSwitched}

APPS = {
    "dotprod": lambda p: DotProductApp(p, n=8192),
    "jacobi": lambda p: JacobiApp(p, n=48, iters=3),
    "tsp": lambda p: TspApp(p, ncities=8),
    "pde3d": lambda p: Pde3dApp(p, m=16, iters=4),
}

#: Every golden configuration of ``golden_schedules.json`` and
#: ``golden_switched.json`` (their union of managers), run on both media.
CASES = [
    (app, manager, p, {})
    for app in ("dotprod", "jacobi", "tsp")
    for manager in ("centralized", "fixed", "dynamic", "broadcast")
    for p in (2, 3)
] + [
    ("jacobi", "dynamic", 2, {"frames": 12, "replacement": "lru"}),
    ("jacobi", "dynamic", 2, {"frames": 12, "replacement": "random"}),
    # Loss: the per-station draw must not depend on who is addressed.
    ("tsp", "dynamic", 3, {"loss_rate": 0.05}),
    ("jacobi", "fixed", 3, {"loss_rate": 0.05}),
]


def _case_id(case):
    app, manager, p, extra = case
    tail = "".join(f"-{v}" for v in extra.values())
    return f"{app}-{manager}-p{p}{tail}"


def _config(backend, manager, nprocs, frames=None, replacement="lru", loss_rate=0.0):
    cfg = (
        ClusterConfig()
        .replace(nodes=nprocs)
        .with_svm(algorithm=manager)
        .with_fabric(backend=backend)
    )
    if frames is not None:
        cfg = cfg.with_memory(frames=frames, replacement=replacement)
    if loss_rate:
        cfg = cfg.with_ring(loss_rate=loss_rate).with_fabric(loss_rate=loss_rate)
    return cfg


def _run(app_name, cfg, reference):
    app = APPS[app_name](cfg.nodes)
    # Everything alive now is frozen out of the collector's view, so the
    # collection and the census below see only what this run allocated.
    gc.freeze()
    try:
        ivy = Ivy(cfg)
        fabric = ivy.cluster.fabric
        if reference:
            fabric.__class__ = REFERENCE[type(fabric)]
        result = ivy.run(app.main)
        app.check(result)
        _assert_only_held_envelopes_live(ivy)
    finally:
        gc.unfreeze()
    return ivy, result


def _observables(ivy):
    cluster = ivy.cluster
    stats = cluster.fabric.stats
    return {
        "time_ns": ivy.time_ns,
        "fabric": stats.snapshot(),
        "links": {
            name: (link.busy_ns, link.messages, link.peak_backlog_ns)
            for name, link in stats.links().items()
        },
        "transport": [node.transport.stats.snapshot() for node in cluster.nodes],
        "counters": [node.counters.snapshot() for node in cluster.nodes],
    }


def _assert_only_events_moved(app_name, cfg):
    new, new_result = _run(app_name, cfg, reference=False)
    ref, ref_result = _run(app_name, cfg, reference=True)
    assert _observables(new) == _observables(ref)
    assert np.array_equal(np.asarray(new_result), np.asarray(ref_result))
    filtered = ref.cluster.fabric.filtered
    assert (
        ref.cluster.sim.events_executed - new.cluster.sim.events_executed
        == filtered
    )
    return filtered


def _assert_only_held_envelopes_live(ivy):
    """The envelopes the run left alive are exactly those outstanding
    ``_Pending`` records and sticky-forward cache entries hold."""
    held = set()
    for node in ivy.cluster.nodes:
        transport = node.transport
        held.update(id(pending.msg) for pending in transport._pending.values())
        held.update(
            id(entry[1]) for entry in transport._reply_cache.values()
            if entry[0] == "forwarded"
        )
    gc.collect()
    live = {id(obj) for obj in gc.get_objects() if type(obj) is Message}
    assert live == held


@pytest.mark.parametrize("backend", ["ring", "switched"])
@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_filtering_in_the_fabric_moves_only_the_event_count(case, backend):
    app_name, manager, nprocs, extra = case
    _assert_only_events_moved(app_name, _config(backend, manager, nprocs, **extra))


#: ``events_executed`` of the five fixture entries as committed before
#: the fabric filtered — what the reference fabric must still produce.
#: Every other entry, and every ``time_ns``, is as it always was.
BEFORE = {
    ("ring", "tsp/centralized/p3"): 1925,
    ("ring", "tsp/dynamic/p3"): 1902,
    ("switched", "tsp/broadcast/p3"): 2808,
    ("switched", "tsp/centralized/p3"): 1925,
    ("switched", "tsp/dynamic/p3"): 1893,
}

FIXTURES = {
    backend: json.loads((Path(__file__).parent / name).read_text())
    for backend, name in (
        ("ring", "golden_schedules.json"), ("switched", "golden_switched.json")
    )
}


@pytest.mark.parametrize(
    "backend,key",
    [(backend, key) for backend, golden in FIXTURES.items() for key in golden],
)
def test_reference_fabric_reproduces_the_fixtures_as_they_were(backend, key):
    """The golden edits, derived instead of regenerated: the reference
    run still lands on the old fixture value, and what it executes
    beyond the committed one is exactly the frames it filtered."""
    app_name, manager, nprocs, *eviction = key.split("/")
    extra = {}
    if eviction:
        frames, extra["replacement"] = eviction[0].split("-")
        extra["frames"] = int(frames.removeprefix("frames"))
    cfg = _config(backend, manager, int(nprocs[1:]), **extra)
    ref, _ = _run(app_name, cfg, reference=True)
    committed = FIXTURES[backend][key]
    events = ref.cluster.sim.events_executed
    assert ref.time_ns == committed["time_ns"]
    assert events == BEFORE.get((backend, key), committed["events_executed"])
    assert events - ref.cluster.fabric.filtered == committed["events_executed"]


def test_sixteen_switched_nodes_filter_a_thousand_frames():
    # At 16 stations an invalidation names one or two holders and used
    # to wake all fifteen.
    cfg = _config("switched", "dynamic", 16).with_svm(page_size=1024)
    assert _assert_only_events_moved("pde3d", cfg) > 1000
