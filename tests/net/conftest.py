"""Shared fixtures: a small cluster of transport + remote-op endpoints."""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.net.fabric.switched import SwitchedFabric
from repro.net.remoteop import RemoteOp
from repro.net.fabric.ring import TokenRing
from repro.net.transport import Transport
from repro.sim.kernel import Simulator
from repro.sim.process import SimDriver


class NetRig:
    """A bare network: sim + ring + one transport/remoteop per node."""

    def __init__(self, nnodes=3, config=None, loss_rate=0.0, seed=7, backend="ring"):
        self.config = (config or ClusterConfig(nodes=nnodes)).replace(nodes=nnodes)
        if loss_rate:
            self.config = self.config.with_ring(loss_rate=loss_rate)
        self.sim = Simulator()
        self.driver = SimDriver(self.sim)
        rng = np.random.default_rng(seed)
        if backend == "ring":
            self.ring = TokenRing(self.sim, self.config.ring, nnodes, rng=rng)
        else:
            self.ring = SwitchedFabric(self.sim, self.config.fabric, nnodes, rng=rng)
        self.transports = [
            Transport(self.sim, self.driver, self.ring, n, self.config)
            for n in range(nnodes)
        ]
        self.ops = [
            RemoteOp(t, self.driver, self.config) for t in self.transports
        ]

    def spawn(self, gen, name="t"):
        return self.driver.spawn(gen, name)

    def run(self, **kw):
        return self.sim.run(**kw)


@pytest.fixture
def rig():
    return NetRig()
