"""Call-count gate on the per-event path of the kernel and the scheduler.

Host time is too noisy to gate in a test; the number of Python calls
is exact.  Plain (non-generator) functions only: a generator's resume
is a ``call`` profile event too, and how many of those a frame sees
depends on the interpreter version, while plain calls count the same
on CPython 3.10 to 3.12."""

import inspect
import os
import sys

from repro.api.ivy import Ivy
from repro.apps.dotprod import DotProductApp
from repro.config import ClusterConfig

LAYERS = tuple(os.sep + os.path.join("repro", pkg) + os.sep for pkg in ("sim", "proc"))


def _plain_calls_per_event() -> float:
    app = DotProductApp(2, seed=7)
    ivy = Ivy(ClusterConfig(nodes=2))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if (
            event == "call"
            and not code.co_flags & inspect.CO_GENERATOR
            and any(layer in code.co_filename for layer in LAYERS)
        ):
            calls += 1

    sys.setprofile(count)
    try:
        app.check(ivy.run(app.main))
    finally:
        sys.setprofile(None)
    return calls / ivy.cluster.sim.events_executed


def test_kernel_and_scheduler_calls_per_event():
    """An event calls the code it wakes: no resume wrapper between the
    kernel and a task, no ``Compute`` built per constant charge.  An
    unobserved p=2 dot product makes 5.44 such calls per event (6.61
    with the wrappers and per-use charges)."""
    assert _plain_calls_per_event() <= 5.5
