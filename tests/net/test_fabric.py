"""The fabric abstraction: backend registry, switched medium model,
per-link stats, and ring/switched behavioural parity at the interface."""

import inspect
import sys
from collections import Counter

import numpy as np
import pytest

from repro.config import ClusterConfig, ConfigError, FabricConfig
from repro.net.fabric import FABRIC_BACKENDS, Fabric, make_fabric
from repro.net.fabric.switched import SwitchedFabric
from repro.net.packet import BROADCAST, Message
from repro.net.remoteop import RemoteOp
from repro.net.transport import Transport, _Pending
from repro.net.fabric.ring import TokenRing
from repro.sim.kernel import Simulator
from repro.sim.rng import RngStreams


def msg(src, dst, nbytes=100, op="ping", targets=None):
    return Message(
        src=src, dst=dst, kind="req", op=op, origin=src, msg_id=1,
        payload=None, nbytes=nbytes, targets=targets,
    )


def make_switched(nnodes=4, **cfg):
    sim = Simulator()
    config = FabricConfig(backend="switched", **cfg)
    fabric = SwitchedFabric(sim, config, nnodes)
    inboxes = {n: [] for n in range(nnodes)}
    arrivals = {n: [] for n in range(nnodes)}
    for n in range(nnodes):
        def receive(m, n=n):
            inboxes[n].append(m)
            arrivals[n].append(sim.now)
        fabric.attach(n, receive)
    return sim, fabric, inboxes, arrivals


# ----------------------------------------------------------------------
# backend registry


def _mk(config):
    return make_fabric(Simulator(), config, RngStreams(config.seed))


def test_make_fabric_dispatches_on_backend_name():
    assert isinstance(_mk(ClusterConfig(nodes=3)), TokenRing)
    assert isinstance(
        _mk(ClusterConfig(nodes=3).with_fabric(backend="switched")),
        SwitchedFabric,
    )


def test_backends_carry_their_registry_name():
    for backend in FABRIC_BACKENDS:
        fabric = _mk(ClusterConfig(nodes=2).with_fabric(backend=backend))
        assert fabric.name == backend
        assert isinstance(fabric, Fabric)


def test_unknown_backend_raises_structured_config_error():
    config = ClusterConfig(nodes=2).with_fabric(backend="switchd")
    with pytest.raises(ConfigError) as excinfo:
        _mk(config)
    err = excinfo.value
    assert err.field == "fabric.backend"
    assert err.value == "switchd"
    assert err.known == ("ring", "switched")
    assert err.suggestion == "switched"
    assert "did you mean 'switched'?" in str(err)


def test_every_command_line_reads_the_backend_names_from_the_registry():
    import argparse

    from repro.exps import scale
    from repro.obs import __main__ as obs_cli

    assert scale.BACKENDS == tuple(FABRIC_BACKENDS) == ("ring", "switched")
    parser = argparse.ArgumentParser()
    obs_cli._add_run_args(parser)
    (fabric,) = [a for a in parser._actions if a.dest == "fabric"]
    assert tuple(fabric.choices) == tuple(FABRIC_BACKENDS)


def test_unrelated_backend_name_gets_no_suggestion():
    with pytest.raises(ConfigError) as excinfo:
        _mk(ClusterConfig(nodes=2).with_fabric(backend="carrier-pigeon"))
    assert excinfo.value.suggestion is None
    assert "did you mean" not in str(excinfo.value)


def test_cluster_raises_config_error_for_unknown_backend():
    from repro.api.cluster import Cluster

    with pytest.raises(ConfigError):
        Cluster(ClusterConfig(nodes=2).with_fabric(backend="rnig"))


# ----------------------------------------------------------------------
# switched medium model: timing


def test_switched_occupancy_includes_overhead_and_wire_time():
    _, fabric, _, _ = make_switched(
        link_bandwidth_bps=100_000_000, link_overhead=30_000
    )
    # 1250 bytes -> 1250*8 bits / 100 Mbit/s = 100 microseconds of wire.
    assert fabric.occupancy_ns(1250) == 30_000 + 100_000


def test_switched_unicast_hop_timing():
    sim, fabric, _, arrivals = make_switched(
        switch_latency=10_000, delivery_latency=20_000
    )
    occ = fabric.occupancy_ns(100)
    fabric.send(msg(0, 1))
    sim.run()
    # egress occupancy + crossbar + ingress occupancy + receiver DMA.
    assert arrivals[1] == [2 * occ + 10_000 + 20_000]


def test_disjoint_pairs_transmit_concurrently():
    sim, fabric, _, arrivals = make_switched(nnodes=4)
    fabric.send(msg(0, 1))
    fabric.send(msg(2, 3))
    sim.run()
    # Unlike the shared ring, the second pair does not queue behind the
    # first: both deliveries land at the identical time.
    assert arrivals[1] == arrivals[3]


def test_same_source_sends_queue_fifo_on_the_egress_port():
    sim, fabric, _, arrivals = make_switched(nnodes=4)
    occ = fabric.occupancy_ns(100)
    fabric.send(msg(0, 1))
    fabric.send(msg(0, 2))
    sim.run()
    assert arrivals[2][0] - arrivals[1][0] == occ


def test_same_destination_sends_queue_fifo_on_the_ingress_port():
    sim, fabric, _, arrivals = make_switched(nnodes=4)
    occ = fabric.occupancy_ns(100)
    fabric.send(msg(0, 2))
    fabric.send(msg(1, 2))
    sim.run()
    assert len(arrivals[2]) == 2
    assert arrivals[2][1] - arrivals[2][0] == occ


def test_switched_self_send_and_out_of_range_rejected():
    _, fabric, _, _ = make_switched()
    with pytest.raises(ValueError):
        fabric.send(msg(1, 1))
    with pytest.raises(ValueError):
        fabric.send(msg(0, 9))


# ----------------------------------------------------------------------
# broadcast as a multicast tree


def test_broadcast_reaches_every_other_station_exactly_once():
    sim, fabric, inboxes, _ = make_switched(nnodes=8, multicast_fanout=2)
    fabric.send(msg(3, BROADCAST))
    sim.run()
    assert [len(inboxes[n]) for n in range(8)] == [1, 1, 1, 0, 1, 1, 1, 1]
    assert fabric.stats.broadcasts == 1


def test_multicast_tree_counts_relay_transmissions():
    sim, fabric, _, _ = make_switched(nnodes=8, multicast_fanout=2)
    fabric.send(msg(0, BROADCAST, nbytes=1000))
    sim.run()
    # 7 targets, fan-out 2: the source feeds 2, relays feed the other 5.
    assert fabric.stats.relays == 5
    # Every tree edge carries the full message — real fan-out cost.
    assert fabric.stats.bytes_sent == 7 * 1000


def test_multicast_relay_hops_arrive_later_than_root_fed_targets():
    sim, fabric, _, arrivals = make_switched(
        nnodes=8, multicast_fanout=2, relay_cost=40_000
    )
    fabric.send(msg(0, BROADCAST))
    sim.run()
    root_fed = max(arrivals[1][0], arrivals[2][0])   # tree positions 0, 1
    relay_fed = min(arrivals[n][0] for n in (3, 4, 5, 6, 7))
    assert relay_fed > root_fed


def test_broadcast_cost_scales_with_fanout():
    def total_time(k):
        sim, fabric, _, _ = make_switched(nnodes=16, multicast_fanout=k)
        fabric.send(msg(0, BROADCAST))
        return sim.run()

    # A wider tree is shallower: later leaves arrive sooner.
    assert total_time(8) < total_time(2)


# ----------------------------------------------------------------------
# loss and the explorer's drop hook


def test_switched_loss_drops_frames_deterministically():
    sim = Simulator()
    fabric = SwitchedFabric(
        sim, FabricConfig(backend="switched", loss_rate=1.0), 2,
        rng=np.random.default_rng(0),
    )
    got = []
    fabric.attach(0, got.append)
    fabric.attach(1, got.append)
    fabric.send(msg(0, 1))
    sim.run()
    assert got == []
    assert fabric.stats.lost_frames == 1


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_drop_policy_attempt_numbering_is_identical_across_backends(backend):
    """The explorer's delay-injection strategy numbers (msg, target)
    attempts through drop_policy; both media must present the same
    deterministic sequence for a broadcast."""
    fabric = _mk(ClusterConfig(nodes=5).with_fabric(backend=backend))
    sim = fabric.sim
    for n in range(5):
        fabric.attach(n, lambda m: None)
    seen = []
    fabric.drop_policy = lambda m, target: (seen.append(target), False)[1]
    fabric.send(msg(1, BROADCAST))
    sim.run()
    assert seen == [0, 2, 3, 4]


def test_forced_drop_suppresses_only_that_target():
    sim, fabric, inboxes, _ = make_switched(nnodes=4, multicast_fanout=2)
    fabric.drop_policy = lambda m, target: target == 2
    fabric.send(msg(0, BROADCAST))
    sim.run()
    assert [len(inboxes[n]) for n in range(4)] == [0, 1, 0, 1]
    assert fabric.stats.lost_frames == 1


def test_forced_drop_does_not_change_other_targets_timing():
    """A lost frame must not perturb surviving deliveries (loss is drawn
    after all tree bookkeeping) — otherwise drop exploration would
    explore timings no real loss pattern produces."""
    sim1, fabric1, _, arrivals1 = make_switched(nnodes=8, multicast_fanout=2)
    fabric1.send(msg(0, BROADCAST))
    sim1.run()
    sim2, fabric2, _, arrivals2 = make_switched(nnodes=8, multicast_fanout=2)
    fabric2.drop_policy = lambda m, target: target == 1
    fabric2.send(msg(0, BROADCAST))
    sim2.run()
    for n in range(2, 8):
        assert arrivals1[n] == arrivals2[n]


# ----------------------------------------------------------------------
# a targeted frame wakes only the stations it names


def make_attached(backend, nnodes, **fabric_cfg):
    config = ClusterConfig(nodes=nnodes).with_fabric(backend=backend, **fabric_cfg)
    fabric = _mk(config)
    inboxes = {n: [] for n in range(nnodes)}
    for n in range(nnodes):
        fabric.attach(n, inboxes[n].append)
    return fabric, inboxes


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_targeted_frame_is_delivered_to_named_stations_only(backend):
    fabric, inboxes = make_attached(backend, 6)
    frame = msg(2, BROADCAST, targets=(0, 4))
    fabric.send(frame)
    assert fabric.sim.pending() == 2  # one delivery event per named station
    fabric.sim.run()
    assert [len(inboxes[n]) for n in range(6)] == [1, 0, 0, 0, 1, 0]
    assert fabric.stats.broadcasts == 1


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_delivery_events_scheduled_equal_stations_named(backend):
    """Deterministic cost gate: one event per named station, not one per
    station on the medium."""
    fabric, _ = make_attached(backend, 64)
    sim = fabric.sim
    for named in ((7,), (1, 2, 3), tuple(range(1, 64, 2))):
        before = sim.pending()
        fabric.send(msg(0, BROADCAST, targets=named))
        assert sim.pending() - before == len(named)
    before = sim.pending()
    fabric.send(msg(0, BROADCAST))
    assert sim.pending() - before == 63


def test_targeted_frame_books_the_whole_tree_like_a_plain_broadcast():
    """Simulated time is untouched: the tree is not pruned to the named
    stations, so a later unicast to a station the frame did not name
    still queues behind the frame on that station's rx port."""

    def after(first):
        sim, fabric, _, arrivals = make_switched(nnodes=8, multicast_fanout=2)
        fabric.send(first)
        fabric.send(msg(1, 6))
        sim.run()
        links = {
            name: (link.busy_ns, link.messages, link.peak_backlog_ns)
            for name, link in fabric.stats.links().items()
        }
        return fabric.stats.snapshot(), links, arrivals[6][-1]

    assert after(msg(0, BROADCAST, targets=(3,))) == after(msg(0, BROADCAST))


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_drop_decisions_cover_stations_the_frame_does_not_name(backend):
    """Attempt numbering and the loss stream must not depend on who is
    addressed: every station passed gets its drop decision."""
    fabric, inboxes = make_attached(backend, 5)
    seen = []
    fabric.drop_policy = lambda m, station: (seen.append(station), station == 3)[1]
    fabric.send(msg(1, BROADCAST, targets=(3, 4)))
    fabric.sim.run()
    assert seen == [0, 2, 3, 4]
    assert [len(inboxes[n]) for n in range(5)] == [0, 0, 0, 0, 1]
    assert fabric.stats.lost_frames == 1

    lossy = ClusterConfig(nodes=5).with_ring(loss_rate=0.5).with_fabric(
        backend=backend, loss_rate=0.5
    )
    states = []
    for targets in (None, (3,)):
        medium = _mk(lossy)
        for n in range(5):
            medium.attach(n, lambda m: None)
        medium.send(msg(1, BROADCAST, targets=targets))
        states.append((medium.rng.bit_generator.state, medium.stats.lost_frames))
    assert states[0] == states[1]


@pytest.mark.parametrize("backend", ["ring", "switched"])
@pytest.mark.parametrize(
    "bad,station",
    [((1, 99), 99), ((0, 1), 0), ((-1,), -1), ((2, 4), 4)],
)
def test_bad_target_set_fails_at_send_naming_frame_and_station(backend, bad, station):
    fabric, _ = make_attached(backend, 4)
    frame = msg(0, BROADCAST, targets=bad)
    with pytest.raises(ValueError) as excinfo:
        fabric.send(frame)
    assert frame.describe() in str(excinfo.value)
    assert f"station {station} " in str(excinfo.value)
    # Nothing was booked or scheduled for the rejected frame.
    assert fabric.stats.messages == 0
    assert fabric.sim.pending() == 0


def _python_calls(fn):
    """Python-level function calls made by ``fn()``."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


def test_switched_broadcast_makes_no_python_call_per_station_booked():
    """Complexity gate on a deterministic proxy: booking the 255-station
    tree is one loop in one frame, and the only Python-level call made
    per station is the kernel's ``schedule_nocancel`` for a station the
    frame *names* — plus a small constant per send (10 here; 32
    allowed).  A per-station helper in the booking loop (the old
    ``_hop``: 245,473 calls for 26,017 sends at n=256) or in the
    delivery loop fails both ceilings."""
    fabric, _ = make_attached("switched", 256)
    named = (17, 200)
    targeted = _python_calls(lambda: fabric.send(msg(0, BROADCAST, targets=named)))
    assert targeted <= len(named) + 32
    plain = _python_calls(lambda: fabric.send(msg(0, BROADCAST)))
    assert plain <= 255 + 32


def _frames_entered(fn, *owners):
    """``fn()``'s entered Python frames whose code is a method of one of
    ``owners`` (a class, or each class a module defines) or a function a
    module defines, by qualified name; with the names of the generator
    methods among them (a resume enters a frame again, and how often
    differs across CPython versions, so only their names are exact).
    Nested code (comprehensions, lambdas) is not named: CPython 3.12
    inlines comprehensions, so only named functions count alike."""
    names = {}
    for owner in owners:
        classes = [owner]
        if inspect.ismodule(owner):
            mine = {k: v for k, v in vars(owner).items()
                    if getattr(v, "__module__", None) == owner.__name__}
            classes = [v for v in mine.values() if inspect.isclass(v)]
            for name, function in mine.items():
                function = getattr(function, "__wrapped__", function)  # functools.cache
                if inspect.isfunction(function):
                    names[function.__code__] = name
        for cls in classes:
            for name, method in vars(cls).items():
                method = getattr(method, "__func__", method)  # staticmethod
                if inspect.isfunction(method):
                    names[method.__code__] = f"{cls.__name__}.{name}"
    plain = Counter()
    generators = set()

    def count(frame, event, arg):
        name = names.get(frame.f_code)
        if event == "call" and name is not None:
            if frame.f_code.co_flags & inspect.CO_GENERATOR:
                generators.add(name)
            else:
                plain[name] += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return dict(plain), generators


@pytest.mark.parametrize("backend", sorted(FABRIC_BACKENDS))
def test_a_round_trip_pays_one_call_per_layer_per_frame(backend):
    """Exact call gate for the message path: an unobserved request and
    its reply on two stations are two frames, and each frame enters
    ``Transport._transmit``, ``Message.__init__``, ``Fabric.send``, the
    backend's ``_book`` and the receiving ``Transport._on_message`` once
    apiece — nothing else in ``repro.net`` runs per frame.  The rest is
    paid once per request, and the requester waits in the transport's
    own generator, not in a remote-op or reply-gate frame."""
    from tests.net.conftest import NetRig

    rig = NetRig(nnodes=2, backend=backend)
    for transport in rig.transports:
        transport.load_provider = int  # a builtin: the load byte enters no frame

    def echo(origin, payload):
        return payload
        yield  # a handler is a generator

    rig.ops[1].register("op", echo)

    def round_trip():
        task = rig.spawn(rig.ops[0].request(1, "op", 5))
        rig.run()
        assert task.result == 5

    round_trip()  # the occupancy cache learns the header size
    book = f"{type(rig.ring).__name__}._book"
    plain, generators = _frames_entered(
        round_trip, Message, Fabric, type(rig.ring), Transport, _Pending, RemoteOp
    )
    per_frame = ("Transport._transmit", "Message.__init__", "Fabric.send", book,
                 "Transport._on_message")
    assert {name: plain.pop(name, 0) for name in per_frame} == dict.fromkeys(per_frame, 2)
    assert plain == {
        "RemoteOp.request": 1, "Transport.request": 1, "_Pending.__init__": 1,
        "Transport._arm_timer": 1, "_Pending.park": 1,
        "Transport._on_request": 1, "RemoteOp._dispatch": 1,
        "Transport._on_reply": 1, "_Pending.post": 1,
    }
    assert generators == {
        "Transport._send_and_wait", "RemoteOp._serve", "Transport.send_reply",
    }


def test_an_unobserved_fault_waits_in_the_transport_frame():
    """A read fault's request is the transport's generator itself: the
    protocol's ``_locate_request`` is one plain call that hands it back,
    the remote-op layer adds no ``_rpc`` frame, and there is no reply-gate
    generator (the ``_Pending`` record is what the requester parks on)."""
    import repro.sim.sync
    from repro.svm.protocol import CoherenceProtocol

    from tests.svm.conftest import make_cluster, run_task

    cluster = make_cluster(nodes=2)
    address = cluster.config.svm.shared_base

    def read():
        return (yield from cluster.node(1).mem.read_i64(address))

    plain, generators = _frames_entered(
        lambda: run_task(cluster, read()), CoherenceProtocol, RemoteOp, Transport
    )
    assert cluster.node(1).counters["read_faults"] == 1
    assert plain["CoherenceProtocol._locate_request"] == 1
    assert "CoherenceProtocol._locate_request" not in generators
    assert "RemoteOp._rpc" not in generators
    assert "Transport._send_and_wait" in generators
    assert not hasattr(repro.sim.sync, "Gate")


def test_a_frame_for_an_unattached_station_fails_at_send():
    fabric = _mk(ClusterConfig(nodes=3))
    for station in (0, 1):
        fabric.attach(station, lambda m: None)
    with pytest.raises(RuntimeError, match="no receiver attached at station 2"):
        fabric.send(msg(0, 2))


@pytest.mark.parametrize("backend", sorted(FABRIC_BACKENDS))
def test_unobserved_run_makes_no_observe_call(backend, monkeypatch):
    """With observation off nothing asks the obs handle to record: an
    unobserved p=2 dot product (140 frames on the ring) makes no
    ``Observability.observe``, ``interval`` (scheduler CPU time),
    ``gauge`` (pager residency), ``span_begin`` or ``span_end`` call on
    either backend; with the checker off the protocol publishes no
    transition (``CoherenceProtocol._note``)."""
    from repro.exps.parallel import Job
    from repro.obs import Observability
    from repro.svm.protocol import CoherenceProtocol

    calls = []
    for method in ("observe", "interval", "gauge", "span_begin", "span_end"):
        monkeypatch.setattr(
            Observability, method,
            lambda self, *args, method=method, **kw: calls.append(method),
        )
    monkeypatch.setattr(
        CoherenceProtocol, "_note", lambda self, *args, **kw: calls.append("_note")
    )
    config = ClusterConfig().with_fabric(backend=backend)
    res = Job("dotprod", {"n": 8192}, nprocs=2, config=config).run()
    assert not res.obs and res.events_executed > 0
    assert calls == []


# ----------------------------------------------------------------------
# FabricStats: per-link view on both backends


def test_ring_stats_expose_a_single_medium_link():
    sim = Simulator()
    ring = _mk(ClusterConfig(nodes=3))
    for n in range(3):
        ring.attach(n, lambda m: None)
    ring.send(msg(0, 1, nbytes=500))
    ring.send(msg(1, 2, nbytes=500))
    ring.sim.run()
    links = ring.stats.links()
    assert set(links) == {"medium"}
    assert links["medium"].messages == 2
    assert links["medium"].busy_ns == ring.stats.busy_ns
    # The second send queued behind the first: backlog was observed.
    assert links["medium"].peak_backlog_ns > 0


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_stats_are_one_shape_booked_on_live_links(backend):
    """Both media keep one stats type: ``links()`` hands back the very
    objects the medium books (not copies made per call), ``busy_ns`` is
    their sum, and ``snapshot()`` has the same keys on every backend."""
    fabric, _ = make_attached(backend, 3)
    links = fabric.stats.links()
    fabric.send(msg(0, 1, nbytes=500))
    fabric.send(msg(2, BROADCAST))
    fabric.sim.run()
    again = fabric.stats.links()
    assert list(again) == list(links)
    assert all(again[name] is link for name, link in links.items())
    assert sum(link.busy_ns for link in links.values()) == fabric.stats.busy_ns > 0
    if backend == "ring":
        assert links["medium"].busy_ns == fabric.stats.busy_ns
        assert links["medium"].messages == fabric.stats.messages == 2
    assert set(fabric.stats.snapshot()) == {
        "messages", "broadcasts", "bytes_sent", "busy_ns", "lost_frames", "relays",
    }


def test_switched_stats_expose_per_port_links():
    sim, fabric, _, _ = make_switched(nnodes=3)
    fabric.send(msg(0, 1))
    fabric.send(msg(0, 2))
    sim.run()
    links = fabric.stats.links()
    assert set(links) == {f"tx[{n}]" for n in range(3)} | {
        f"rx[{n}]" for n in range(3)
    }
    assert links["tx[0]"].messages == 2
    assert links["rx[1]"].messages == 1
    assert links["tx[1]"].messages == 0
    # The second send queued on node 0's egress port only.
    assert links["tx[0]"].peak_backlog_ns > 0
    assert links["rx[1]"].peak_backlog_ns == 0


# ----------------------------------------------------------------------
# interface basics shared through the base class


def test_attach_validation_is_shared():
    _, fabric, _, _ = make_switched()
    with pytest.raises(ValueError):
        fabric.attach(0, lambda m: None)  # already attached
    with pytest.raises(ValueError):
        fabric.attach(9, lambda m: None)  # out of range


def test_fabric_base_requires_a_station():
    with pytest.raises(ValueError):
        SwitchedFabric(Simulator(), FabricConfig(backend="switched"), 0)
