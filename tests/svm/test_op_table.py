"""The op table (``repro.svm.protocol.Op`` rows) against what actually runs.

Every remote operation of the coherence protocol is declared once, as a
row on the class that serves it.  These tests tie that one declaration
to its readers: the handlers and ``OP_*`` constants it names, the sends
the verifier finds in the source, the rows the verifier parses, the
labels the explorer is offered, and the table printed in DESIGN.md —
and gate against a second declaration site growing back.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro.svm
from repro.analysis.explore import RecordingScheduler, Scenario, explore_dfs
from repro.analysis.static import facts as facts_mod
from repro.analysis.static.waitfor import expand_sends
from repro.api.cluster import Cluster
from repro.config import ClusterConfig, ConfigError
from repro.net import fabric as fabric_mod
from repro.net import packet
from repro.net import transport as transport_mod
from repro.net.remoteop import RemoteOp
from repro.svm import (
    BroadcastProtocol,
    CentralizedProtocol,
    CoherenceProtocol,
    DynamicDistributedProtocol,
    FixedDistributedProtocol,
)
from repro.svm.protocol import Op, make_protocol

from tests.svm.conftest import base, make_cluster, run_task

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

CLASSES = (
    CoherenceProtocol,
    CentralizedProtocol,
    FixedDistributedProtocol,
    DynamicDistributedProtocol,
    BroadcastProtocol,
)
BY_ALGORITHM = {cls.name: cls for cls in CLASSES}


def own_rows(cls) -> tuple[Op, ...]:
    return vars(cls).get("OPS", ())


@pytest.fixture(scope="module")
def facts():
    return facts_mod.collect(facts_mod.load_modules([str(SRC / "svm")]))


# ----------------------------------------------------------------------
# totality


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_row_names_a_generator_method(cls):
    table = cls.op_table()
    assert table
    for row in table.values():
        handler = getattr(cls, row.handler, None)
        assert inspect.isgeneratorfunction(handler), (cls.__name__, row)


def test_only_the_base_and_the_dynamic_manager_declare_rows():
    assert [cls.__name__ for cls in CLASSES if own_rows(cls)] == [
        "CoherenceProtocol", "DynamicDistributedProtocol",
    ]
    assert set(DynamicDistributedProtocol.op_table()) == (
        set(CoherenceProtocol.op_table()) | {"svm.hint"}
    )
    for cls in (CentralizedProtocol, FixedDistributedProtocol, BroadcastProtocol):
        assert cls.op_table() == CoherenceProtocol.op_table()


def test_every_op_constant_is_declared_by_exactly_one_row():
    constants = set()
    for info in pkgutil.iter_modules(repro.svm.__path__):
        module = importlib.import_module(f"repro.svm.{info.name}")
        constants |= {
            value for name, value in vars(module).items() if name.startswith("OP_")
        }
    declared = [row.name for cls in CLASSES for row in own_rows(cls)]
    assert len(constants) == 7
    assert sorted(declared) == sorted(constants)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_every_op_a_class_sends_is_in_its_table(cls, facts):
    # None: a helper's op parameter seen without a caller binding it.
    sent = {send.op for send in expand_sends(facts, cls.__name__)} - {None}
    assert sent == set(cls.op_table())


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_the_verifier_parses_the_rows_the_runtime_registers(cls, facts):
    assert [row for row, _line in facts.classes[cls.__name__].ops] == list(
        own_rows(cls)
    )
    assert {
        op: row for op, (row, _cls, _line) in facts.effective_ops(cls.__name__).items()
    } == cls.op_table()


def test_registration_follows_the_rows(algorithm):
    cluster = make_cluster(nodes=2, algorithm=algorithm)
    table = BY_ALGORITHM[algorithm].op_table()
    for node in cluster.nodes:
        handlers = node.remote._handlers
        assert {
            op: handler.__name__
            for op, handler in handlers.items()
            if op.startswith("svm.")
        } == {row.name: row.handler for row in table.values()}
        assert set(node.remote._local_probes) == {
            row.name for row in table.values() if row.owner_served
        }
    for row in table.values():
        assert packet._PAGE_OF[row.name] == row.page


# ----------------------------------------------------------------------
# a second, conflicting declaration fails loudly


def test_redeclaring_an_op_with_another_page_raises(monkeypatch):
    class Reshaped(DynamicDistributedProtocol):
        OPS = (Op("svm.inv", "_serve_inv", page=(1,), lock_free=True, fanout=True),)

    real = make_protocol
    monkeypatch.setattr(
        "repro.api.cluster.make_protocol",
        lambda algorithm, **kwargs: (
            Reshaped(**kwargs) if kwargs["node_id"] == 1 else real(algorithm, **kwargs)
        ),
    )
    with pytest.raises(ValueError) as err:
        make_cluster(nodes=2, algorithm="dynamic")
    message = str(err.value)
    assert "'svm.inv'" in message and "(0,)" in message and "(1,)" in message


def test_a_second_handler_for_one_op_on_one_node_raises():
    cluster = make_cluster(nodes=2)

    def impostor(origin, payload):
        return None
        yield

    with pytest.raises(ValueError, match="svm.read.*already registered on node 0"):
        cluster.node(0).remote.register("svm.read", impostor)


# ----------------------------------------------------------------------
# bad protocol config is a structured error


def test_unknown_algorithm_is_a_config_error_with_a_suggestion():
    with pytest.raises(ConfigError) as err:
        make_cluster(algorithm="dynamc")
    assert err.value.field == "svm.algorithm"
    assert err.value.known == ("broadcast", "centralized", "dynamic", "fixed")
    assert err.value.suggestion == "dynamic"


def test_unknown_write_policy_is_a_config_error_before_any_registration(monkeypatch):
    registered = []
    monkeypatch.setattr(
        RemoteOp, "register", lambda self, op, handler: registered.append(op)
    )
    config = ClusterConfig(nodes=2).with_svm(write_policy="updat")
    with pytest.raises(ConfigError) as err:
        Cluster(config)
    assert err.value.field == "svm.write_policy"
    assert err.value.known == ("invalidate", "update")
    assert err.value.suggestion == "update"
    assert registered == []


# ----------------------------------------------------------------------
# run-time / static agreement


@pytest.fixture()
def rendered(monkeypatch):
    """Every delivery label rendered while the fixture is live."""
    labels: list[str] = []

    def recording(target, msg):
        label = packet.delivery_label(target, msg)
        labels.append(label)
        return label

    monkeypatch.setattr(fabric_mod, "delivery_label", recording)
    monkeypatch.setattr(transport_mod, "delivery_label", recording)
    return labels


def paged_ops(labels, table) -> set[str]:
    """Ops of ``table`` seen on request/broadcast labels — asserting on
    the way that each carries a page and each reply carries none."""
    seen = set()
    for label in labels:
        parsed = packet.parse_delivery_label(label)
        assert parsed is not None, label
        if parsed.op not in table:
            continue
        if parsed.kind == "rep":
            assert parsed.page is None, label
        else:
            assert parsed.page is not None, label
            seen.add(parsed.op)
    return seen


def test_every_delivery_of_a_table_op_is_labelled_with_its_page(algorithm, rendered):
    """The label the explorer is offered and the projection the verifier
    certified are the same row column, so under every manager every
    request/broadcast delivery of a table op reads ``p<digits>``, never
    ``p?``, and nothing is counted as an extractor error."""
    for workload in ("rw", "chown", "mutate-upgrade"):
        result = explore_dfs(
            Scenario(
                algorithm=algorithm, nodes=3, pages=1, workload=workload,
                hint_period=1,
            ),
            max_schedules=40,
            jobs=1,  # the spy is in this process: forked workers' labels are not
        )
        assert set(result.statuses) == {"ok"}
        assert result.extractor_errors == {}
    expected = {"svm.read", "svm.write", "svm.chown", "svm.inv"}
    if algorithm == "broadcast":
        expected.add("svm.locate")
    if algorithm == "dynamic":
        expected.add("svm.hint")
    assert paged_ops(rendered, BY_ALGORITHM[algorithm].op_table()) == expected


def test_update_pushes_are_labelled_with_their_page(rendered):
    config = make_cluster(nodes=2).config.with_svm(write_policy="update")
    cluster = Cluster(config)
    cluster.sim.scheduler = RecordingScheduler(())
    addr = base(cluster)

    def script():
        yield from cluster.node(0).mem.write_i64(addr, 1)
        yield from cluster.node(1).mem.read_i64(addr)
        yield from cluster.node(0).mem.write_i64(addr, 2)

    run_task(cluster, script())
    assert "svm.update" in paged_ops(rendered, CoherenceProtocol.op_table())
    assert packet.extractor_errors() == {}


# ----------------------------------------------------------------------
# one declaration site


def test_no_reader_spells_an_op_or_a_handler_name():
    """The net layer, the explorer and the static verifier read rows;
    none may carry its own copy of an op name or a handler name."""
    forbidden = set()
    for cls in CLASSES:
        for row in own_rows(cls):
            forbidden |= {row.name, row.handler}
    files = [
        *sorted((SRC / "net").rglob("*.py")),
        SRC / "analysis" / "explore.py",
        *sorted((SRC / "analysis" / "static").glob("*.py")),
    ]
    assert len(files) > 15
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in forbidden:
                pytest.fail(
                    f"{path.relative_to(ROOT)}:{node.lineno} spells "
                    f"{node.value!r}: read it from the op table instead"
                )


# ----------------------------------------------------------------------
# the table printed in DESIGN.md is the table in the code


def test_design_md_prints_the_rows_of_the_code():
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text.split("## The op table", 1)[1].split("\n## ", 1)[0]
    printed = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if re.fullmatch(r"`svm\.\w+`", cells[0]):
            printed.append(cells[:7])

    def mark(flag: bool) -> str:
        return "yes" if flag else "–"

    expected = [
        [
            f"`{row.name}`",
            f"`{row.handler}`",
            "`payload" + "".join(f"[{i}]" for i in row.page) + "`",
            mark(row.owner_served),
            mark(row.lock_free),
            mark(row.fanout),
            f"`{cls.__name__}`",
        ]
        for cls in CLASSES
        for row in own_rows(cls)
    ]
    assert printed == expected
