"""Fixtures shared by the tests of the one process pool
(`repro.exps.parallel.fork_map`): its own tests, the experiment
runner's and the schedule explorer's."""

from __future__ import annotations

import multiprocessing
import os
import signal
from typing import Callable

import pytest


@pytest.fixture
def deadline():
    """A hang fails the test instead of the suite."""

    def expired(signum, frame):
        raise TimeoutError("the call did not return")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """Count the worker processes started from here on."""
    started: list[int] = []
    start = multiprocessing.process.BaseProcess.start

    def counting(self):
        started.append(1)
        start(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counting)
    return started


@pytest.fixture
def reaped() -> Callable[[], None]:
    """Call to assert that no worker is left running or unreaped."""

    def check() -> None:
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):  # nothing left to reap either
            os.waitpid(-1, os.WNOHANG)

    return check
