"""Delivery-label grammar, page declarations and their error accounting.

``delivery_label`` (formatter) and ``parse_delivery_label`` (the single
parser, which the explorer imports instead of re-deriving the grammar)
live side by side in :mod:`repro.net.packet`; the property test pins
them together so they cannot drift."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.packet import (
    DeliveryLabel,
    Message,
    declare_op_page,
    delivery_label,
    extractor_errors,
    op_page,
    parse_delivery_label,
    reset_extractor_errors,
)

ops = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*", fullmatch=True)
ids = st.integers(min_value=0, max_value=10**6)


@pytest.fixture(autouse=True)
def _clean_error_counts():
    reset_extractor_errors()
    yield
    reset_extractor_errors()


class TestLabelGrammar:
    @given(
        target=ids,
        page=st.one_of(st.none(), ids),
        kind=st.sampled_from(["req", "bcast"]),
        op=ops,
        origin=ids,
        msg_id=ids,
    )
    def test_round_trip(self, target, page, kind, op, origin, msg_id):
        ptag = "p?" if page is None else f"p{page}"
        label = f"deliver:n{target}:{ptag}:{kind}:{op}:o{origin}.{msg_id}"
        assert parse_delivery_label(label) == DeliveryLabel(
            target, page, kind, op, origin, msg_id
        )

    @given(op=ops, page=ids, target=ids, origin=ids, msg_id=ids)
    def test_formatter_output_parses(self, op, page, target, origin, msg_id):
        op = f"t.{op}"  # keep the real ops' declarations untouched
        declare_op_page(op, ())
        msg = Message(0, target, "req", op, origin, msg_id, page, nbytes=32)
        parsed = parse_delivery_label(delivery_label(target, msg))
        assert parsed == DeliveryLabel(target, page, "req", op, origin, msg_id)

    def test_replies_are_never_page_attributed(self):
        declare_op_page("t.owner", ())
        msg = Message(0, 1, "rep", "t.owner", 2, 7, 3, nbytes=32)
        assert parse_delivery_label(delivery_label(1, msg)) == DeliveryLabel(
            1, None, "rep", "t.owner", 2, 7
        )

    def test_non_delivery_labels_rejected(self):
        for label in (None, "", "compute:n0", "deliver:n0:p1:req:op",
                      "deliver:nx:p1:req:op:o0.1"):
            assert parse_delivery_label(label) is None


class TestDeclarations:
    def test_identical_redeclaration_is_free(self):
        # Every manager class re-declares the base rows it inherits.
        declare_op_page("t.twice", (0,))
        declare_op_page("t.twice", (0,))
        assert op_page("t.twice", (7, "x")) == 7

    def test_conflicting_redeclaration_names_op_and_both_paths(self):
        declare_op_page("t.clash", ())
        with pytest.raises(ValueError) as err:
            declare_op_page("t.clash", (0,))
        message = str(err.value)
        assert "'t.clash'" in message and "()" in message and "(0,)" in message
        assert op_page("t.clash", 4) == 4  # the first declaration stands


class TestExtractorErrors:
    def test_raising_extractor_counts_and_warns_once(self):
        declare_op_page("t.bad", (2,))
        with pytest.warns(RuntimeWarning, match="t.bad"):
            assert op_page("t.bad", (1, 2)) is None  # IndexError
        # Second failure: counted, but no second warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op_page("t.bad", 5) is None  # TypeError: not subscriptable
        assert extractor_errors() == {"t.bad": 2}

    def test_non_int_result_counts(self):
        declare_op_page("t.str", (0,))
        with pytest.warns(RuntimeWarning, match="non-page"):
            assert op_page("t.str", ("5", 5)) is None
        assert extractor_errors() == {"t.str": 1}

    def test_bool_is_not_a_page(self):
        # True is an ack value; silently reading it as page 1 would let
        # the explorer commute deliveries it has no proof about.
        declare_op_page("t.ack", ())
        with pytest.warns(RuntimeWarning):
            assert op_page("t.ack", True) is None

    def test_healthy_extractor_is_silent(self):
        declare_op_page("t.ok", ())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert op_page("t.ok", 9) == 9
        assert extractor_errors() == {}

    def test_undeclared_op_has_no_page_and_is_no_error(self):
        assert op_page("t.never_declared", 9) is None
        assert extractor_errors() == {}

    def test_reset_clears_the_warn_latch(self):
        declare_op_page("t.again", (0,))
        with pytest.warns(RuntimeWarning):
            op_page("t.again", 1)
        reset_extractor_errors()
        with pytest.warns(RuntimeWarning):
            op_page("t.again", 1)
        assert extractor_errors() == {"t.again": 1}

    def test_explorer_delta_only_counts_new_failures(self):
        # The explorer snapshots the registry before exploring and
        # reports only the failures its own runs produced.
        from repro.analysis.explore import _extractor_error_delta

        declare_op_page("t.flaky", (0,))
        with pytest.warns(RuntimeWarning):
            op_page("t.flaky", ())
        before = extractor_errors()
        assert _extractor_error_delta(before) == {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            op_page("t.flaky", ())
            op_page("t.flaky", ())
        assert _extractor_error_delta(before) == {"t.flaky": 2}


# ----------------------------------------------------------------------
# who renders labels, and when


def _raiser(site):
    def render(*args):
        raise AssertionError(f"{site} label rendered with no Scheduler installed")

    render.site = site
    return render


@pytest.mark.parametrize("backend", ["ring", "switched"])
def test_uncontrolled_run_never_renders_a_label(monkeypatch, backend):
    """Every labelled call site hands the kernel an unevaluated
    ``(fn, *args)`` label and the kernel renders it only for an
    installed Scheduler — so on an ordinary run (lossy, so retransmit
    timers fire too) no label function is ever called."""
    from repro.api.ivy import Ivy
    from repro.apps.dotprod import DotProductApp
    from repro.config import ClusterConfig
    from repro.net import fabric as fabric_mod
    from repro.net import transport as transport_mod
    from repro.sim import process as process_mod
    from repro.sim.kernel import Simulator

    monkeypatch.setattr(fabric_mod, "delivery_label", _raiser("delivery"))
    monkeypatch.setattr(transport_mod, "delivery_label", _raiser("local-delivery"))
    monkeypatch.setattr(transport_mod, "_retransmit_label", _raiser("retransmit"))
    monkeypatch.setattr(process_mod, "_STEP", _raiser("task-step"))
    monkeypatch.setattr(process_mod, "_WAKE", _raiser("task-wake"))

    offered = set()
    for name in ("schedule", "schedule_nocancel"):
        def spy(self, delay, fn, *args, label=None, _real=getattr(Simulator, name)):
            if label is not None:
                offered.add(label[0].site)
            return _real(self, delay, fn, *args, label=label)

        monkeypatch.setattr(Simulator, name, spy)

    config = ClusterConfig(nodes=3).with_svm(algorithm="fixed")
    if backend == "ring":
        config = config.with_ring(loss_rate=0.05)
    else:
        config = config.with_fabric(backend="switched", loss_rate=0.05)
    ivy = Ivy(config)
    app = DotProductApp(3, n=4096)
    app.check(ivy.run(app.main))
    assert sum(n.transport.stats.retransmits for n in ivy.cluster.nodes) > 0

    # The coherence managers short-circuit requests to themselves, so
    # drive the transport's local-delivery path directly.
    node = ivy.cluster.node(1)

    def echo(origin, payload):
        return payload
        yield

    def call_self():
        assert (yield from node.remote.request(1, "test.echo", 42)) == 42

    node.remote.register("test.echo", echo)
    task = ivy.cluster.spawn_system(call_self(), "call-self")
    ivy.cluster.run()
    assert task.done and task.error is None

    assert offered == {
        "delivery", "local-delivery", "retransmit", "task-step", "task-wake",
    }
