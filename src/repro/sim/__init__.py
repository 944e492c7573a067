"""Deterministic discrete-event simulation kernel.

This package is the substrate for the whole reproduction: a heap-based
event queue with an integer-nanosecond clock (`repro.sim.kernel`),
generator-based lightweight tasks with pluggable drivers
(`repro.sim.process`), and seeded per-component random streams
(`repro.sim.rng`).  Recording what a run did is the observability
layer's job (`repro.obs` spans and counters); the coherence checker
receives every protocol transition itself (`repro.analysis`).

Determinism contract: for a fixed :class:`repro.config.ClusterConfig`
(including its seed) every run produces bit-identical event orderings,
statistics, and simulated timings.  Ties in event time are broken by a
monotonic sequence number, never by hash order or id().
"""

from repro.sim.kernel import DeadlockError, Simulator
from repro.sim.process import (
    Compute,
    Effect,
    Sleep,
    Suspend,
    Task,
    TaskFailure,
    YieldCpu,
)
from repro.sim.rng import RngStreams

__all__ = [
    "Simulator",
    "DeadlockError",
    "Task",
    "TaskFailure",
    "Effect",
    "Compute",
    "Sleep",
    "Suspend",
    "YieldCpu",
    "RngStreams",
]
