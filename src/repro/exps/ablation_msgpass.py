"""Ablation — shared virtual memory vs. message passing.

The paper's motivating argument, measured.

Workload: a producer on node 0 builds a linked structure of E elements
(a list of records); consumers on every other node traverse it.

- Message passing must marshal the structure (chase E pointers, tag,
  relocate), ship it to each consumer, and unmarshal (allocate + fix up)
  on arrival — per-element costs from `repro.msgpass.marshal`.
- On the SVM, passing the structure is passing a pointer: consumers
  fault the pages over on first touch, and a repeat traversal is free
  because the pages are already cached read copies.

Both sides traverse the structure ``touches`` times, so re-use is part
of the comparison (the second traversal is where DSM wins big).
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

import numpy as np

from repro.api.ivy import Ivy
from repro.apps.mp_matmul import run_mp_matmul
from repro.config import ClusterConfig
from repro.exps.experiment import Column, Experiment, Record, main, run_program, seconds
from repro.exps.parallel import Job
from repro.msgpass import MessagePassing
from repro.sync.eventcount import EC_RECORD_BYTES

NODES = 4

#: Bytes per linked element (a cons cell with a small payload).
ELEMENT_BYTES = 32
#: Simple ops to visit one element during a traversal.
VISIT_OPS = 6


def _svm_run(nodes: int, elements: int, touches: int) -> int:
    def consumer(ctx: Any, addr: Any, done: Any) -> Generator[Any, Any, Any]:
        for _ in range(touches):
            data = yield from ctx.mem.fetch_array(
                addr, np.uint8, ELEMENT_BYTES * elements
            )
            assert data[0] == 1
            yield ctx.ops(elements * VISIT_OPS)
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        addr = yield from ctx.malloc(ELEMENT_BYTES * elements)
        structure = np.ones(ELEMENT_BYTES * elements, dtype=np.uint8)
        yield from ctx.write_array(addr, structure)
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        for k in range(1, nodes):
            yield from ctx.spawn(consumer, addr, done, on=k)
        yield from ctx.ec_wait(done, nodes - 1)
        return True

    return int(run_program(ClusterConfig(nodes=nodes), main_prog)["time_ns"])


def _msgpass_run(nodes: int, elements: int, touches: int) -> int:
    ivy = Ivy(ClusterConfig(nodes=nodes))
    mp = MessagePassing(ivy)
    nbytes = ELEMENT_BYTES * elements

    def consumer(ctx: Any, done: Any) -> Generator[Any, Any, Any]:
        structure = yield from mp.receive(ctx, port=1)
        assert structure == "linked-structure"
        for _ in range(touches):
            yield ctx.ops(elements * VISIT_OPS)
        yield from ctx.ec_advance(done)

    def main_prog(ctx: Any) -> Generator[Any, Any, Any]:
        done = yield from ctx.malloc(EC_RECORD_BYTES)
        yield from ctx.ec_init(done)
        for k in range(1, nodes):
            yield from ctx.spawn(consumer, done, on=k)
        for k in range(1, nodes):
            # One marshalled copy per consumer: E pointer-linked elements.
            yield from mp.send(
                ctx, k, 1, "linked-structure", nbytes=nbytes, elements=elements
            )
        yield from ctx.ec_wait(done, nodes - 1)
        return True

    ivy.run(main_prog)
    return int(ivy.time_ns)


def _pair(workload: str, svm_ns: int, msgpass_ns: int) -> Record:
    return {
        "workload": workload, "svm_ns": svm_ns, "msgpass_ns": msgpass_ns,
        "ratio": msgpass_ns / svm_ns,
    }


def run(full: bool) -> list[Record]:
    elements = 8000 if full else 2000
    records = [
        _pair(
            f"linked structure x{touches}",
            _svm_run(NODES, elements, touches), _msgpass_run(NODES, elements, touches),
        )
        for touches in (1, 3)
    ]
    # The same application under both models.  Flat bulk arrays mean
    # marshalling is only a copy (no per-element pointer chasing), yet the
    # natural master/worker program still loses: the master re-marshals A
    # per worker and its sends serialise, while SVM workers pull pages
    # concurrently on demand.
    n = 160 if full else 96
    svm = Job("matmul", {"n": n}, nprocs=NODES).run().time_ns
    _, ivy = run_mp_matmul(NODES, n=n)
    return records + [_pair(f"matmul n={n} (flat arrays)", svm, ivy.time_ns)]


def shape(records: list[Record]) -> None:
    # SVM wins on linked structures (the paper's argument) and holds its
    # own on the same application with flat arrays.
    for r in records:
        assert r["ratio"] > 1.1, r


EXPERIMENT = Experiment(
    name="ablation_msgpass",
    title="Ablation — SVM vs message passing",
    columns=(
        Column("workload", "workload"),
        Column("SVM time", "svm_ns", seconds),
        Column("msg-pass time", "msgpass_ns", seconds),
        Column("mp/svm", "ratio", lambda x: f"{x:.2f}x"),
    ),
    run=run,
    shape=shape,
    paper=(
        '"The difficulty of passing complex data structures is the main '
        'drawback of message passing"; on the SVM "passing a list data '
        'structure simply requires passing a pointer".'
    ),
)

if __name__ == "__main__":
    main(EXPERIMENT)
