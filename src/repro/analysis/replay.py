"""Offline replay checking of recorded protocol streams.

A protocol stream is exactly what the online oracle is fed:
:func:`record_stream` taps every node's ``protocol.checker`` hook and
keeps one ``{"time", "category", "fields"}`` record per ``svm.*``
transition, in execution order, after a ``cluster.boot`` header built
from the config.  ``python -m repro.analysis run --trace FILE`` saves it
as JSON lines (:mod:`repro.obs.jsonl`).  Replaying the records through
the :class:`~repro.analysis.oracle.ShadowMachine` re-runs every
stream-decidable invariant without the cluster: grants only by owners,
invalidations only to granted copies, epoch monotonicity, no write
completing over live copies.  This is the post-mortem half of the
checker: record a checked run, ship the JSONL file, check it anywhere
(``python -m repro.analysis replay trace.jsonl``).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Iterable

from repro.analysis.oracle import ShadowMachine
from repro.obs.jsonl import read_jsonl

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.api.cluster import Cluster

__all__ = ["SVM_CATEGORIES", "record_stream", "replay_events", "replay_file", "summarize"]

#: Categories the offline checker consumes.
SVM_CATEGORIES = frozenset(
    {
        "cluster.boot",
        "svm.fault_begin",
        "svm.read_fault",
        "svm.write_fault",
        "svm.write_upgrade",
        "svm.chown",
        "svm.grant",
        "svm.invalidate",
        "svm.inv_recv",
        "svm.update_recv",
        "svm.drop",
    }
)


def record_stream(cluster: "Cluster") -> list[dict[str, Any]]:
    """Tap a checked cluster's protocol stream before it runs.

    Returns a list that holds the ``cluster.boot`` header now and
    receives, as the run goes, every transition a node's protocol hands
    the oracle, which still gets each one.
    """
    oracle = cluster.oracle
    if oracle is None:
        raise ValueError("record_stream needs a cluster built with checker=True")
    config = cluster.config
    boot = {
        "nodes": config.nodes,
        "manager": config.svm.manager_node,
        "algorithm": config.svm.algorithm,
        "write_policy": config.svm.write_policy,
        "page_size": config.svm.page_size,
    }
    records = [{"time": cluster.sim.now, "category": "cluster.boot", "fields": boot}]

    def on_event(category: str, time: int, fields: dict[str, Any]) -> None:
        records.append({"time": time, "category": category, "fields": fields})
        oracle.on_event(category, time, fields)

    tap: Any = SimpleNamespace(on_event=on_event)  # any object with on_event
    for node in cluster.nodes:
        node.protocol.checker = tap
    return records


def replay_events(
    records: Iterable[dict[str, Any]], strict: bool = False
) -> ShadowMachine:
    """Drive a shadow machine over ``records`` (execution order expected).

    Cluster parameters are taken from the stream's ``cluster.boot``
    record; a stream without one is checked with defaults (one manager
    at node 0, invalidation policy).  Returns the shadow machine; its
    ``violations`` list holds everything found (``strict`` raises on
    the first instead).
    """
    machine = ShadowMachine(nnodes=1, strict=strict)
    for rec in records:
        if rec["category"] in SVM_CATEGORIES:
            machine.apply(rec["category"], rec["time"], rec["fields"])
    return machine


def replay_file(path: str, strict: bool = False) -> ShadowMachine:
    """Check one protocol stream saved by ``run --trace``."""
    return replay_events(read_jsonl(path), strict=strict)


def summarize(machine: ShadowMachine) -> str:
    """Human-readable replay verdict."""
    lines = [
        f"replayed {machine.events_seen} events over "
        f"{len(machine.pages)} pages"
    ]
    if not machine.violations:
        lines.append("no invariant violations")
    for violation in machine.violations:
        lines.append(violation.format())
    return "\n".join(lines)
