"""The proven commutativity matrix behind the explorer's POR.

:mod:`repro.analysis.explore` prunes schedules with a sleep-set partial
order reduction whose *independence relation* was once hand written:
two same-tick deliveries commute when they land on different nodes and
either concern different pages or are both declared fan-out-safe.  This
module derives that relation from the op table (the rows parsed by
:mod:`facts`) and the :mod:`footprints` effect analysis, and emits it as
a machine-readable matrix — the only thing the explorer's relation is
built from — per algorithm:

- ``ops`` — which ops are *page-attributed* (the page their row declares
  provably names every page-keyed state access of the handler).  An op
  the analysis cannot attribute is demoted: the matrix marks it
  unattributed and the certified relation treats its deliveries as
  conflicting with everything (sound, merely unreduced).
- ``fanout_safe`` — the subset of the ops whose row claims
  ``fanout=True`` (``fanout_declared``, the rows of the class under
  analysis) whose claim is *proven*: the handler touches only the
  target's own per-page state (no wildcard writes, no eviction-capable
  installs, no unkeyed manager state, no payload mutation, no awaited
  sends) and reply aggregation at the origin is order-insensitive for
  every scheme the op is sent under.  A declared-but-unproven op is a
  finding, never a silent matrix entry; a proven-but-undeclared op is
  deliberately *not* added (the matrix refines the declared claim, it
  does not extend it without review).
- ``same_node_commutes`` — the strict refinement over the hand-coded
  relation: pairs of attributed ops whose effects provably commute even
  when delivered *at the same node* for different pages.  Soundness
  leans on two established facts: the explorer's state equivalence is
  coherence-equivalence (``_fingerprint`` quotients out timing,
  counters and observation), and reply identity is emission-order
  stable (replies and forwards reuse the request's ``origin.msg_id``,
  ``repro.net.transport``), so reordering two handler executions can
  only be observed through genuinely shared state — which the effect
  pairs below rule out.  The physical frame pool's recency *order* is
  protocol state (it picks eviction victims), so ``touch×touch`` and
  ``install×anything`` conflict even for distinct pages.

Aggregation order-insensitivity per reply scheme: ``unicast`` replies
are matched by ``(origin, msg_id)``; ``all`` collectives gather keyed
by sender; ``none`` expects no replies; ``any`` (first reply wins) is
order-sensitive *unless* at most one target can reply — proven
syntactically by requiring every ``Reply`` return in the handler to be
dominated by an ``is_owner`` test (ownership is unique by the
single-owner invariant the PR 1 oracle enforces).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import ast

from repro.analysis.static import facts as facts_mod
from repro.analysis.static.findings import Finding
from repro.analysis.static.footprints import (
    ClassFootprints,
    Effect,
    EffectAnalyzer,
    OpFootprint,
    certify_class,
)

__all__ = [
    "MATRIX_VERSION",
    "CommuteSummary",
    "analyze",
    "to_matrix",
    "build_matrix",
    "save_matrix",
]

MATRIX_VERSION = 1

#: Stores exempt from every commutation obligation (observation axiom:
#: the explorer's fingerprint quotients them out and they never feed
#: back into protocol decisions).
_EXEMPT_STORES = frozenset({"counter", "obs"})


@dataclass
class CommuteSummary:
    """Per-algorithm certification result (one manager class)."""

    name: str  #: algorithm name (the class-body ``name`` attribute)
    class_name: str
    footprints: ClassFootprints
    fanout_declared: tuple[str, ...] = ()
    fanout_proven: tuple[str, ...] = ()
    same_node_commutes: list[tuple[str, str]] = field(default_factory=list)

    @property
    def attributed_ops(self) -> list[str]:
        return sorted(
            op for op, fp in self.footprints.ops.items() if fp.attributed
        )


# ----------------------------------------------------------------------
# effect-pair compatibility (same node, provably different pages)


def _page_keyed(key: str) -> bool:
    return key not in ("*", "other", "")


def _compatible(ea: Effect, eb: Effect) -> bool:
    """May the two effects be reordered when their page keys are known
    to denote *different* pages on the *same* node?"""
    if ea.store != eb.store:
        # attr:<x> vs attr:<y> and all cross-store pairs touch disjoint
        # state (the stores partition the per-node protocol state).
        return True
    store = ea.store
    if store in _EXEMPT_STORES:
        return True
    if store == "send":
        # Emissions commute (identity-stable replies, order-insensitive
        # aggregation is checked per op); an awaited send never gets
        # here (it demotes the op to unattributed).
        return ea.kind == "emit" and eb.kind == "emit"
    if store == "unknown" or store == "payload":
        return False
    if store == "pool":
        # Recency order is protocol state: eviction picks the LRU
        # victim.  Installs may evict (wildcard writes) and append to
        # the recency order; touches reorder it.
        if "install" in (ea.kind, eb.kind):
            return False
        if ea.kind == "touch" and eb.kind == "touch":
            return False
        if ea.kind == "read" and not _page_keyed(ea.key):
            return eb.kind == "read"  # whole-pool reads vs mutation
        if eb.kind == "read" and not _page_keyed(eb.key):
            return ea.kind == "read"
        return True  # keyed touch/drop/pin/read on distinct pages
    # entry / frame / disk / attr:<x>: reads always commute; once a
    # write (or lock) is involved both sides must be page-keyed, and
    # distinct pages mean distinct rows.
    if ea.kind == "read" and eb.kind == "read":
        return True
    return _page_keyed(ea.key) and _page_keyed(eb.key)


def _pair_commutes(fa: OpFootprint, fb: OpFootprint) -> bool:
    for ea in fa.effects:
        for eb in fb.effects:
            if not _compatible(ea, eb):
                return False
    return True


# ----------------------------------------------------------------------
# fan-out proof obligations


def _reply_schemes(
    facts: facts_mod.ProjectFacts, class_name: str, op: str
) -> set[str]:
    """Every reply scheme ``op`` is sent under anywhere in the class."""
    schemes: set[str] = set()
    for _cls, info in facts.effective_methods(class_name).values():
        for send in info.sends:
            if send.op.value == op:
                schemes.add(send.reply)
    return schemes


def _is_owner_test(test: ast.expr) -> bool | None:
    """True: the If body is owner-only; False: the orelse is."""
    if isinstance(test, ast.Attribute) and test.attr == "is_owner":
        return True
    if (
        isinstance(test, ast.UnaryOp)
        and isinstance(test.op, ast.Not)
        and isinstance(test.operand, ast.Attribute)
        and test.operand.attr == "is_owner"
    ):
        return False
    return None


def _returns_reply(stmt: ast.Return) -> bool:
    # Any non-None return value is a reply at the transport layer
    # (bare acks like ``return True`` included); ``NO_REPLY`` and
    # ``return None`` are explicit silence.
    value = stmt.value
    if value is None:
        return False
    if isinstance(value, ast.Constant) and value.value is None:
        return False
    if isinstance(value, ast.Name) and value.id == "NO_REPLY":
        return False
    return True


def _replies_owner_guarded(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Every ``return Reply(...)`` dominated by an ``is_owner`` test.

    With single ownership, at most one broadcast target passes the
    guard, so a first-reply-wins (``any``) aggregation cannot observe
    delivery order."""

    def check(stmts: list[ast.stmt], guarded: bool) -> bool:
        ok = True
        for stmt in stmts:
            if isinstance(stmt, ast.Return):
                if _returns_reply(stmt) and not guarded:
                    ok = False
            elif isinstance(stmt, ast.If):
                owner = _is_owner_test(stmt.test)
                ok &= check(stmt.body, guarded or owner is True)
                ok &= check(stmt.orelse, guarded or owner is False)
            elif isinstance(stmt, (ast.For, ast.While, ast.With,
                                   ast.AsyncFor, ast.AsyncWith)):
                ok &= check(stmt.body, guarded)
                ok &= check(getattr(stmt, "orelse", []), guarded)
            elif isinstance(stmt, ast.Try):
                ok &= check(stmt.body, guarded)
                for handler in stmt.handlers:
                    ok &= check(handler.body, guarded)
                ok &= check(stmt.orelse, guarded)
                ok &= check(stmt.finalbody, guarded)
        return ok

    return check(list(fn.body), False)


def _aggregation_insensitive(
    facts: facts_mod.ProjectFacts,
    class_name: str,
    op: str,
    fp: OpFootprint,
) -> tuple[bool, str | None]:
    """(order-insensitive?, reason when not)."""
    schemes = _reply_schemes(facts, class_name, op)
    for scheme in sorted(schemes):
        if scheme in (facts_mod.REPLY_UNICAST, facts_mod.REPLY_ALL,
                      facts_mod.REPLY_NONE):
            continue  # msg_id-matched / sender-keyed gather / no replies
        if scheme == facts_mod.REPLY_ANY:
            found = facts.effective_methods(class_name).get(fp.handler)
            if found is not None and _replies_owner_guarded(found[1].fn):
                continue
            return False, (
                f"op {op!r} is awaited first-reply-wins (scheme 'any') but "
                f"{fp.handler_class}.{fp.handler} can reply without an "
                "is_owner guard — which reply wins depends on delivery order"
            )
        return False, (
            f"op {op!r} is sent under reply scheme {scheme!r}, which the "
            "analysis cannot prove order-insensitive"
        )
    return True, None


def _fanout_obligations(
    facts: facts_mod.ProjectFacts,
    class_name: str,
    op: str,
    fp: OpFootprint,
) -> list[tuple[str, str, str, int]]:
    """(rule, message, path, line) per violated obligation; empty=proven."""
    problems: list[tuple[str, str, str, int]] = []
    where = f"{fp.handler_class}.{fp.handler}"
    if not fp.attributed:
        problems.append((
            "fanout-unproven",
            f"op {op!r} is declared fan-out-safe but {where} is not "
            "page-attributable (see its footprint findings)",
            "", 0,
        ))
        return problems
    for e in sorted(fp.effects, key=lambda e: (e.store, e.key, e.kind)):
        if e.store in _EXEMPT_STORES:
            continue
        if e.store == "send":
            continue  # aggregation is its own obligation below
        if e.kind == "read":
            continue  # reads of per-node state never cross nodes
        if e.kind == "install":
            problems.append((
                "fanout-unproven",
                f"op {op!r}: {where} installs frames ({e.describe()}); an "
                "install may evict, rewriting entries beyond the op's page",
                e.path, e.line,
            ))
        elif not _page_keyed(e.key):
            problems.append((
                "fanout-unproven",
                f"op {op!r}: {where} mutates non-page-keyed state "
                f"({e.describe()}); the fan-out claim requires writes to "
                "the target's own per-page state only",
                e.path, e.line,
            ))
    ok, reason = _aggregation_insensitive(facts, class_name, op, fp)
    if not ok and reason is not None:
        found = facts.effective_methods(class_name).get(fp.handler)
        line = found[1].fn.lineno if found else 0
        path = found[0].path if found else ""
        problems.append(("aggregation-order-sensitive", reason, path, line))
    return problems


# ----------------------------------------------------------------------
# the analysis


def analyze(
    facts: facts_mod.ProjectFacts,
) -> tuple[list[Finding], list[CommuteSummary]]:
    """Certify footprints and prove the commutativity matrix for every
    manager class in ``facts``."""
    findings: dict[tuple[str, str, int, str], Finding] = {}
    summaries: list[CommuteSummary] = []
    analyzer = EffectAnalyzer(facts)

    def add(rule: str, message: str, path: str, line: int) -> None:
        key = (rule, path, line, message)
        findings.setdefault(
            key, Finding(rule=rule, path=path, line=line, message=message)
        )

    for class_name in facts.manager_classes():
        fps = certify_class(facts, class_name, analyzer)
        summary = CommuteSummary(fps.algorithm, class_name, fps)
        for fp in fps.ops.values():
            for rule, message, path, line in fp.problems:
                add(rule, message, path or fps.path, line or fps.line)

        declared = sorted(
            op
            for op, (row, _cls, _line) in facts.effective_ops(class_name).items()
            if row.fanout
        )
        proven: list[str] = []
        agg_ok: dict[str, bool] = {}
        for op, fp in fps.ops.items():
            agg_ok[op], _ = _aggregation_insensitive(facts, class_name, op, fp)
        for op in declared:
            problems = _fanout_obligations(facts, class_name, op, fps.ops[op])
            if problems:
                for rule, message, path, line in problems:
                    add(rule, message, path or fps.path, line or fps.line)
            else:
                proven.append(op)
        summary.fanout_declared = tuple(declared)
        summary.fanout_proven = tuple(proven)

        # Same-node refinement: attributed ops whose effect pairs
        # commute for distinct pages, with order-insensitive emissions.
        attributed = [
            op for op, fp in sorted(fps.ops.items())
            if fp.attributed and (not fp.emits or agg_ok[op])
        ]
        pairs: list[tuple[str, str]] = []
        for i, a in enumerate(attributed):
            for b in attributed[i:]:
                if _pair_commutes(fps.ops[a], fps.ops[b]):
                    pairs.append((a, b))
        summary.same_node_commutes = pairs
        summaries.append(summary)

    return list(findings.values()), summaries


def to_matrix(summaries: list[CommuteSummary]) -> dict[str, Any]:
    """The machine-readable matrix ``explore.py`` loads."""
    algorithms: dict[str, Any] = {}
    for s in summaries:
        algorithms[s.name] = {
            "class": s.class_name,
            "ops": {
                op: {
                    "attributed": fp.attributed,
                    "projection": fp.declared,
                    "handler": f"{fp.handler_class}.{fp.handler}",
                }
                for op, fp in sorted(s.footprints.ops.items())
            },
            "fanout_declared": list(s.fanout_declared),
            "fanout_safe": list(s.fanout_proven),
            "same_node_commutes": [list(p) for p in s.same_node_commutes],
        }
    return {
        "version": MATRIX_VERSION,
        "generator": "repro.analysis.static.commute",
        "algorithms": algorithms,
    }


def build_matrix(root: str | None = None) -> dict[str, Any]:
    """Analyze the checkout's ``src/repro/svm`` and build the matrix.

    This is the explorer's certified-relation entry point; unlike the
    CI artifact path it tolerates findings (the matrix demotes what it
    cannot prove, which is exactly the conservative behaviour the
    certified relation wants)."""
    from pathlib import Path

    if root is None:
        root = str(Path(__file__).resolve().parents[4])
    svm = Path(root) / "src" / "repro" / "svm"
    if not svm.exists():
        raise FileNotFoundError(
            f"cannot build commutativity matrix: {svm} does not exist"
        )
    facts = facts_mod.collect(facts_mod.load_modules([str(svm)]))
    _findings, summaries = analyze(facts)
    return to_matrix(summaries)


def save_matrix(matrix: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix, fh, indent=2, sort_keys=True)
        fh.write("\n")
