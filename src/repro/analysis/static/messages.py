"""Message-exhaustiveness matrix: every send handled, every wait replied.

For each manager class (every node of a run instantiates exactly one),
the matrix cross-checks the ops it can *send* (interprocedurally
expanded, spawn-detached tasks included — they still put a message on
the wire) against the ops its op table (``facts.effective_ops``) declares handlers
for:

``msg-unhandled``
    an op is sent but no handler is registered — at runtime the receiver
    raises on dispatch, but only on the schedule that exercises the
    send; this catches it at lint time for all schedules.

``msg-no-reply-path``
    a handler for a reply-awaited op (point-to-point request, or an
    all-replies collective) can finish without an explicit ``return``
    — falling off the end replies ``None``, which the waiting client
    happily installs as page data.  Also flagged: ``return NO_REPLY``
    from an all-replies collective (the barrier would wait forever).

``msg-noreply-unicast``
    a handler returns ``NO_REPLY`` for an op that is awaited
    point-to-point; staying silent is only legal for broadcast ops
    (the runtime raises, this catches it statically).

``msg-dead-handler``
    a registered op is never sent by any method of the class — dead
    protocol surface, usually a leftover from a refactor.

Replies delivered via ``Forward`` are fine: the forwarded-to server
answers instead, and forwarding chains are finite by the ownership
argument (see :mod:`repro.analysis.static.waitfor`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.static.cfg import CFG, build_cfg
from repro.analysis.static.facts import ProjectFacts
from repro.analysis.static.findings import Finding
from repro.analysis.static.waitfor import expand_sends

__all__ = ["MessageSummary", "analyze"]


@dataclass
class MessageSummary:
    """Per-manager-class message coverage for the CLI."""

    name: str
    sent_ops: list[str] = field(default_factory=list)
    registered_ops: list[str] = field(default_factory=list)
    unhandled: list[str] = field(default_factory=list)
    dead: list[str] = field(default_factory=list)


def _falls_off_end(cfg: CFG) -> bool:
    """Can control reach the normal exit without passing a ``return``?"""
    seen = {cfg.entry}
    stack = [cfg.entry]
    while stack:
        nid = stack.pop()
        if cfg.nodes[nid].kind == "return":
            continue
        for dst, kind in cfg.succs.get(nid, ()):
            if kind == "exc":
                continue
            if dst == cfg.exit:
                return True
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    return False


def _no_reply_returns(cfg: CFG) -> list[int]:
    """Lines of reachable ``return NO_REPLY`` statements."""
    lines = []
    reachable = cfg.reachable()
    for nid, node in cfg.nodes.items():
        if node.kind != "return" or nid not in reachable:
            continue
        ret = node.stmt
        assert isinstance(ret, ast.Return)
        if ret.value is None:
            continue
        rendered = ast.unparse(ret.value)
        if rendered == "NO_REPLY" or rendered.endswith(".NO_REPLY"):
            lines.append(node.line)
    return lines


def analyze(facts: ProjectFacts) -> tuple[list[Finding], list[MessageSummary]]:
    findings: dict[tuple[str, str, int, str], Finding] = {}
    summaries: list[MessageSummary] = []

    def add(rule: str, path: str, line: int, message: str, op: str) -> None:
        findings.setdefault(
            (rule, path, line, op), Finding(rule, path, line, message)
        )

    for cls_name in facts.manager_classes():
        methods = facts.effective_methods(cls_name)
        regs = facts.effective_ops(cls_name)
        sends = expand_sends(facts, cls_name)

        sent_ops = sorted({s.op for s in sends if s.op is not None})
        summary = MessageSummary(cls_name, sent_ops, sorted(regs))

        # Reply expectation per op, from how the class awaits it.
        awaited_unicast: set[str] = set()
        awaited_all: set[str] = set()
        for s in sends:
            if s.op is None or s.detached:
                continue
            if s.reply == "unicast":
                awaited_unicast.add(s.op)
            elif s.reply == "all":
                awaited_all.add(s.op)

        for s in sends:
            if s.op is not None and s.op not in regs:
                summary.unhandled.append(s.op)
                add(
                    "msg-unhandled", s.path, s.line,
                    f"{s.method} sends {s.op} but {cls_name} registers no "
                    "handler for it: every node runs one manager class, so "
                    "the receiver's dispatch raises on the first schedule "
                    "that exercises this send",
                    s.op,
                )
        summary.unhandled = sorted(set(summary.unhandled))

        for op, (row, hcls, reg_line) in regs.items():
            handler = row.handler
            if op not in sent_ops:
                summary.dead.append(op)
                add(
                    "msg-dead-handler", hcls.path, reg_line,
                    f"{cls_name} registers {handler} for {op} but no method "
                    "ever sends it: dead protocol surface (drop the "
                    "registration or wire up the send)",
                    op,
                )
            if op not in awaited_unicast and op not in awaited_all:
                continue
            if handler not in methods:
                continue
            hdef_cls, hinfo = methods[handler]
            cfg = build_cfg(hinfo.fn)
            if _falls_off_end(cfg):
                add(
                    "msg-no-reply-path", hdef_cls.path, hinfo.fn.lineno,
                    f"handler {handler} (op {op}) can fall off the end "
                    "without a return: the waiting client receives None "
                    "as its reply value — every path must return a Reply, "
                    "Forward or NO_REPLY explicitly",
                    op,
                )
            for line in _no_reply_returns(cfg):
                if op in awaited_unicast:
                    add(
                        "msg-noreply-unicast", hdef_cls.path, line,
                        f"handler {handler} returns NO_REPLY but {op} is "
                        "awaited point-to-point: silence is only legal for "
                        "broadcast ops (the runtime raises on this; fixed "
                        "at lint time instead)",
                        op,
                    )
                elif op in awaited_all:
                    add(
                        "msg-no-reply-path", hdef_cls.path, line,
                        f"handler {handler} returns NO_REPLY but {op} is "
                        "awaited as an all-replies collective: the barrier "
                        "would wait forever for the missing reply",
                        op,
                    )
        summary.dead = sorted(summary.dead)
        summaries.append(summary)

    return list(findings.values()), summaries
