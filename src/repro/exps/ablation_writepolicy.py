"""Ablation — write-invalidate (IVY) vs write-update coherence.

IVY invalidates; the other classic design point pushes fresh page
contents to the copy set on every write.  Three workloads bracket the
trade-off:

- **polling consumers**: one writer publishes versions of a datum,
  every other node polls the datum itself.  Invalidation makes every
  reader re-fault per version; update delivers the bytes before they
  ask, so polls stay local.
- **eventcount consumers**: the same handshake built on eventcounts —
  and update *loses*, because synchronisation pages are migratory
  (ownership bounces on every Advance/Wait) and the update policy keeps
  refreshing every past owner's demoted read copy.  This migratory-page
  pathology is the classic reason DSM systems, IVY included, chose
  invalidation as the default.
- **write dominated**: readers look once, then the writer keeps
  writing.  Update pays a multicast per write to refresh copies nobody
  reads again; invalidation pays one invalidation and writes for free.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, Callable

from repro.config import ClusterConfig
from repro.exps.experiment import Column, Experiment, Record, main, run_program, seconds
from repro.sim.process import Sleep
from repro.sync.eventcount import EC_RECORD_BYTES

NODES = 4
POLICIES = ("invalidate", "update")

Program = Callable[[Any], Generator[Any, Any, Any]]


def _polling_consumers(nodes: int, versions: int) -> Program:
    """Readers poll the shared datum itself (no sync pages involved).

    This isolates the data page's behaviour: under invalidation every
    new version costs each reader a fresh fault; under update the
    reader's polls stay local and the push delivers the new version.
    """

    def reader(ctx: Any, data_addr: Any, done: Any) -> Generator[Any, Any, Any]:
        seen = 0
        while seen < versions:
            value = yield from ctx.read_i64(data_addr)
            if value > seen:
                seen = value
            else:
                yield Sleep(300_000)  # 0.3 ms poll backoff
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        data = yield from ctx.malloc(8)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        yield from ctx.write_i64(data, 0)
        for k in range(1, nodes):
            yield from ctx.spawn(reader, data, done, on=k)
        for version in range(1, versions + 1):
            yield ctx.compute(2_000_000)  # produce the next version
            yield from ctx.write_i64(data, version)
        yield from ctx.ec_wait(done, nodes - 1)
        return True

    return main_prog


def _producer_consumer(nodes: int, versions: int) -> Program:
    def reader(ctx: Any, data_addr: Any, ready_ec: Any, ack_ec: Any) -> Generator[Any, Any, Any]:
        for version in range(1, versions + 1):
            yield from ctx.ec_wait(ready_ec, version)
            value = yield from ctx.read_i64(data_addr)
            assert value == version, (value, version)
            yield from ctx.ec_advance(ack_ec)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        data = yield from ctx.malloc(8)
        ready = yield from ctx.malloc(EC_RECORD_BYTES)
        ack = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(ready)
        yield from ctx.ec_init(ack)
        for k in range(1, nodes):
            yield from ctx.spawn(reader, data, ready, ack, on=k)
        for version in range(1, versions + 1):
            yield from ctx.write_i64(data, version)
            yield from ctx.ec_advance(ready)
            yield from ctx.ec_wait(ack, version * (nodes - 1))
        return True

    return main_prog


def _write_dominated(nodes: int, writes: int) -> Program:
    def reader(ctx: Any, data_addr: Any, done: Any) -> Generator[Any, Any, Any]:
        yield from ctx.read_i64(data_addr)  # one look, then never again
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        data = yield from ctx.malloc(8)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        yield from ctx.write_i64(data, 0)
        for k in range(1, nodes):
            yield from ctx.spawn(reader, data, done, on=k)
        yield from ctx.ec_wait(done, nodes - 1)
        for i in range(writes):
            yield from ctx.write_i64(data, i)
        return True

    return main_prog


def run(full: bool) -> list[Record]:
    versions = 40 if full else 12
    writes = 150 if full else 40
    workloads = {
        "polling consumers": _polling_consumers(NODES, versions),
        "eventcount consumers": _producer_consumer(NODES, versions),
        "write dominated": _write_dominated(NODES, writes),
    }
    return [
        {"workload": workload, "policy": policy} | run_program(
            ClusterConfig(nodes=NODES).with_svm(write_policy=policy), program,
            "read_faults", "updates_sent",
        )
        for workload, program in workloads.items()
        for policy in POLICIES
    ]


def shape(records: list[Record]) -> None:
    data = {(r["workload"], r["policy"]): r for r in records}

    def pair(workload: str) -> tuple[Record, Record]:
        return data[workload, "invalidate"], data[workload, "update"]

    invalidate, update = pair("polling consumers")
    assert update["msgs"] < 0.75 * invalidate["msgs"], (
        "update must cut producer/consumer traffic"
    )
    assert update["read_faults"] < invalidate["read_faults"]

    invalidate, update = pair("eventcount consumers")
    assert update["time_ns"] > invalidate["time_ns"], (
        "migratory sync pages must hurt the update policy"
    )

    invalidate, update = pair("write dominated")
    assert update["time_ns"] > 2 * invalidate["time_ns"]
    assert invalidate["updates_sent"] == 0


EXPERIMENT = Experiment(
    name="ablation_writepolicy",
    title="Ablation — write-invalidate (IVY) vs write-update",
    columns=(
        Column("workload", "workload"),
        Column("policy", "policy"),
        Column("exec time", "time_ns", seconds),
        Column("ring msgs", "msgs"),
    ),
    label_columns=2,
    run=run,
    shape=shape,
    paper=(
        '"The memory coherence strategies implemented [in] IVY use [the] '
        'invalidation approach."'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
