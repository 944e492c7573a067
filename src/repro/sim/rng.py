"""Seeded, per-component random streams.

Each subsystem that needs randomness (packet-loss injection, load-balancer
tie breaking, workload generation) draws from its *own* named stream, all
derived from the cluster seed via :func:`numpy.random.SeedSequence.spawn`
semantics.  Adding a new consumer therefore never perturbs the draws seen
by existing ones — determinism survives code evolution.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent named :class:`numpy.random.Generator`s."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The stream is keyed by a stable hash of the name, so creation
        order does not matter.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive child entropy from (seed, name) only — order-free.
            # (`SeedSequence(seed).entropy` is `seed`, so no root sequence
            # is built for the many clusters that never draw.)
            child = np.random.SeedSequence(
                entropy=self.seed,
                spawn_key=(_stable_hash(name),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen


def _stable_hash(name: str) -> int:
    """A process-stable 64-bit FNV-1a hash (``hash()`` is salted)."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
