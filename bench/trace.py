"""Tracing for the extra, traced pass: spans plus a bucketed profile.

Spans are recorded by the harness around its calls into the simulator
(import, input generation, cluster build, run, check), kept in memory
and written out when the pass ends.  Inside the ``run`` spans a
``cProfile`` hook records every Python call's self time; functions are
bucketed by source file into layer groups.  C builtins are not profiled
separately (``builtins=False``), so their time lands in the self time of
the Python function that called them — ``heapq`` work is charged to
``sim``, a numpy copy in ``svm/address_space.py`` to ``svm``.

An untraced pass uses ``Tracer(enabled=False)``, which records nothing.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["GROUPS", "Tracer", "group_of"]

#: Layer groups, in report order.  ``other`` is everything outside
#: ``repro`` (stdlib, numpy's Python layer, the harness's own frames).
GROUPS = (
    "sim", "net.fabric", "net.transport", "net.msg", "machine", "svm", "proc",
    "sync", "alloc", "api", "apps", "obs", "metrics", "analysis", "other",
)

_NET_FILES = {
    "ring.py": "net.fabric",
    "transport.py": "net.transport",
    "remoteop.py": "net.transport",
    "packet.py": "net.msg",
    "pool.py": "net.msg",
}
_PACKAGE_GROUP = {
    "sim": "sim", "machine": "machine", "svm": "svm", "proc": "proc",
    "sync": "sync", "alloc": "alloc", "api": "api", "apps": "apps",
    "msgpass": "apps", "obs": "obs", "metrics": "metrics", "analysis": "analysis",
}


def group_of(filename: str) -> str:
    """The layer group a source file belongs to."""
    _, found, rel = filename.replace("\\", "/").rpartition("/repro/")
    if not found:
        return "other"
    head, _, rest = rel.partition("/")
    if head == "config.py":
        return "api"
    if head == "net":
        return "net.fabric" if rest.startswith("fabric/") else _NET_FILES.get(rest, "other")
    return _PACKAGE_GROUP.get(head, "other")


class Tracer:
    """In-memory spans and (when enabled) a profile of the ``run`` spans."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._profile = cProfile.Profile(builtins=False) if enabled else None
        #: Python-level calls profiled so far, per kind of timed call
        #: ("sim" | "sweep" | "verifier").
        self.calls: dict[str, int] = {}

    @contextmanager
    def span(self, name: str, sim: int | None = None) -> Iterator[None]:
        """Record ``name`` under the innermost open span.  ``sim`` is the
        id shared by every span of one simulation."""
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans) + 1,
            "name": name,
            "sim": sim,
            "parent": self._stack[-1] if self._stack else 0,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    @contextmanager
    def profiled(self, kind: str) -> Iterator[None]:
        """Profile the enclosed calls (no-op when tracing is off) and
        credit their number to ``kind``."""
        if self._profile is None:
            yield
            return
        before = self._total_calls()
        self._profile.enable()
        try:
            yield
        finally:
            self._profile.disable()
            self.calls[kind] = self.calls.get(kind, 0) + self._total_calls() - before

    def _total_calls(self) -> int:
        return sum(entry.callcount for entry in self._profile.getstats())

    def buckets(self, top: int = 3) -> dict[str, dict[str, Any]]:
        """Self time and call counts per layer group, with each group's
        ``top`` hottest functions (traced passes only)."""
        table: dict[str, dict[str, Any]] = {
            g: {"self_s": 0.0, "calls": 0, "top": []} for g in GROUPS
        }
        for entry in self._profile.getstats():
            code = entry.code  # always a code object: builtins are not profiled
            bucket = table[group_of(code.co_filename)]
            bucket["self_s"] += entry.inlinetime
            bucket["calls"] += entry.callcount
            bucket["top"].append(
                (entry.inlinetime, f"{code.co_filename.rsplit('/', 1)[-1]}:{code.co_name}",
                 entry.callcount)
            )
        total = sum(b["self_s"] for b in table.values())
        for bucket in table.values():
            bucket["share"] = bucket["self_s"] / total if total else 0.0
            bucket["top"] = [
                {"fn": fn, "self_s": t, "calls": c}
                for t, fn, c in sorted(bucket["top"], reverse=True)[:top]
            ]
        return table
