"""Findings and reporters for the static protocol verifier.

A finding is one rule violation at one source location, rendered as
``path:line: message``; :func:`to_sarif` emits the same findings as a
SARIF 2.1.0 log for CI annotation/upload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Finding", "RULES", "render", "to_sarif"]

#: Rule registry: id -> one-line description (become SARIF rule metadata).
RULES: dict[str, str] = {
    "lock-free-server": (
        "the handler of an op whose op-table row says lock_free=True "
        "(the invalidation path) must never acquire a PageTableEntry lock"
    ),
    "lock-balance": (
        "a held entry lock must be released on every path out of the "
        "function, including exception edges"
    ),
    "return-in-finally": (
        "the finally of an effect generator may only clean up, never return"
    ),
    "page-write-balance": (
        "acquire_page_write sections must release_page_write on every path"
    ),
    "span-balance": (
        "a span opened in an effect generator must be closed on every path"
    ),
    "cancel-handle": (
        "schedule/schedule_at results must be kept, cancelled, or the "
        "_nocancel variant used"
    ),
    "waitfor-cycle": (
        "the cross-handler wait-for graph must be acyclic (static "
        "deadlock-freedom)"
    ),
    "hold-await-in-server": (
        "a message handler must not block on a remote operation while "
        "holding a lock (server transience)"
    ),
    "multi-lock-wait": (
        "at a blocking remote operation at most one lock may be held "
        "(single-page critical sections)"
    ),
    "collective-locking-server": (
        "an op awaited as an all-replies collective while a lock is held "
        "must have lock-free servers"
    ),
    "msg-unhandled": "an op is sent to nodes that register no handler for it",
    "msg-no-reply-path": (
        "a handler for a reply-awaited op may finish without an explicit "
        "reply value"
    ),
    "msg-noreply-unicast": (
        "a handler returns NO_REPLY for an op that is awaited point-to-point"
    ),
    "msg-dead-handler": "a registered handler's op is never sent by anyone",
    "footprint-under-declared": (
        "a message handler keys state by a payload projection the page "
        "column of its op-table row does not cover (POR would commute "
        "deliveries that actually conflict)"
    ),
    "footprint-unattributable": (
        "a message handler's effects cannot be attributed to the "
        "payload's page; its deliveries must conflict with everything"
    ),
    "fanout-unproven": (
        "an op whose op-table row claims fanout=True whose handler could "
        "not be proven to touch only the target's own per-page state"
    ),
    "aggregation-order-sensitive": (
        "reply aggregation at the origin could depend on reply arrival "
        "order (first-reply-wins without a unique-replier guard)"
    ),
    "det-wallclock": "wall-clock time sources are forbidden in simulated code",
    "det-unseeded-random": "unseeded random number generators are forbidden",
    "det-id-order": "id()-based ordering is address-dependent, not stable",
    "det-set-iteration": (
        "iterating a set in a scheduling path is hash-order dependent; "
        "wrap with sorted()"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str
    line: int
    message: str
    #: Extra structured context (cycle paths, op names) for reports.
    detail: dict[str, Any] = field(default_factory=dict, compare=False)

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.message}"


def render(findings: list[Finding]) -> list[str]:
    """Stable, human-readable one-line-per-finding rendering."""
    ordered = sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.message))
    return [f.render() for f in ordered]


def to_sarif(findings: list[Finding], tool_version: str = "1.0") -> dict[str, Any]:
    """SARIF 2.1.0 log for CI upload; one result per finding."""
    rule_ids = sorted({f.rule for f in findings} | set(RULES))
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {"startLine": max(1, f.line)},
                    }
                }
            ],
        }
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.rule))
    ]
    return {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-static-verify",
                        "version": tool_version,
                        "informationUri": "https://example.invalid/repro",
                        "rules": [
                            {
                                "id": rid,
                                "shortDescription": {
                                    "text": RULES.get(rid, rid)
                                },
                            }
                            for rid in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(findings: list[Finding], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_sarif(findings), fh, indent=2, sort_keys=True)
        fh.write("\n")
