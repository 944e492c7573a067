"""The one on-disk record format: JSON lines.

One JSON object per line, in order.  The protocol stream of ``python -m
repro.analysis run --trace`` (read back by ``replay``), span streams
(:meth:`repro.obs.span.SpanTracer.save`), the windowed-timeline export
and the schedule explorer's counterexample artifacts are all written and
read here.
"""

from __future__ import annotations

import json
from typing import Any, Iterable

__all__ = ["jsonable", "read_jsonl", "write_jsonl"]


def jsonable(value: Any) -> Any:
    """``json.dumps`` fallback: sets serialise sorted (deterministic
    output), bytes as integer lists."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, bytes):
        return list(value)
    raise TypeError(f"unserialisable record field {value!r}")


def write_jsonl(path: str, records: Iterable[dict[str, Any]]) -> int:
    """Write ``records`` one per line; returns how many were written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, record in enumerate(records, 1):
            fh.write(json.dumps(record, default=jsonable) + "\n")
    return count


def read_jsonl(path: str) -> list[dict[str, Any]]:
    """The records of a :func:`write_jsonl` file (blank lines skipped)."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
