"""Cross-handler wait-for graph: lint-time deadlock-freedom.

IVY's fault path waits on remote operations *while holding page-table
entry locks*, and the servers for those operations acquire entry locks
of their own — the textbook shape of a distributed deadlock.  The
paper's design dodges it with three disciplines, which this module turns
into checkable obligations over the facts extracted by
:mod:`repro.analysis.static.facts`:

``multi-lock-wait`` (W3)
    At any *awaited* remote send, at most one entry lock may be held.
    Single-page critical sections make the client side of the wait-for
    graph a star around one lock class.

``hold-await-in-server`` (W2)
    A message handler must never await a remote operation while holding
    a lock.  Servers may *transiently* block on their local entry lock
    (fault servers do), but while holding it they only compute and
    reply — so a server's wait is always on a lock, never on another
    node's reply.

``collective-locking-server`` (W1)
    An op awaited as an all-replies collective while a lock is held
    (invalidations, update pushes) must have fully lock-free servers —
    a collective needs *every* target to answer, including nodes whose
    entry lock is held by their own in-flight fault, so even a transient
    blocking acquire closes the cycle.  (``try_acquire`` + RETRY is
    fine: it never blocks.)

The wait-for graph is built per manager class over two abstract node
kinds: the entry-lock class and the ops.  ``entry → op`` when a client
awaits op while holding a lock; ``op → entry`` when op's handler
(transitively) blocking-acquires; ``op → op'`` when op's handler awaits
op'.  An ``op → entry`` edge of a *transient* server (W2-clean, not
awaited as a held collective) is **discharged** by the ownership-order
axiom: same-page client/server chains follow the probable-owner
forwarding order, which the runtime keeps acyclic (the schedule
explorer model-checks this; see ``repro.analysis.schedules``).  The
remaining graph must be acyclic; any cycle is reported as
``waitfor-cycle`` with its path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.static.facts import (
    CallSite,
    ClassInfo,
    MethodInfo,
    ProjectFacts,
    Send,
    _resolve_op,
)
from repro.analysis.static.findings import Finding
from repro.analysis.static.locks import LockChecker

__all__ = ["ResolvedSend", "WaitforSummary", "expand_sends", "analyze"]

#: Reply schemes the sender actually waits on.
AWAITED_REPLIES = ("unicast", "all", "any")

#: Interprocedural expansion depth cap (the protocol call graph is ~3 deep).
MAX_DEPTH = 12

#: The abstract lock-class node of the wait-for graph.
ENTRY = "entry-lock"


@dataclass(frozen=True)
class ResolvedSend:
    """One remote send in one calling context."""

    op: str | None  # None: unresolvable (unbound parameter / dynamic)
    mode: str
    reply: str
    held: frozenset[str]  # lock/page-write keys held at the send
    line: int
    path: str
    method: str
    detached: bool  # reached through a fire-and-forget spawn


@dataclass
class WaitforSummary:
    """Per-manager-class proof summary for the CLI."""

    name: str
    path: str
    ops: list[str] = field(default_factory=list)
    held_await_ops: list[str] = field(default_factory=list)
    discharged_ops: list[str] = field(default_factory=list)
    acyclic: bool = True
    cycle: list[str] = field(default_factory=list)


def _module_lines(facts: ProjectFacts, path: str) -> list[str]:
    for module in facts.modules:
        if module.path == path:
            return module.source_lines
    return []


class _Expander:
    """Binding-aware interprocedural send expansion for one class."""

    def __init__(self, facts: ProjectFacts, class_name: str) -> None:
        self.facts = facts
        self.methods = facts.effective_methods(class_name)
        self._seen: set[
            tuple[str, frozenset[str], tuple[tuple[str, str], ...]]
        ] = set()
        self.out: list[ResolvedSend] = []

    def _held_at(self, mname: str) -> dict[int, set[frozenset[str]]]:
        cls, info = self.methods[mname]
        held = self.facts.held_at.get(info.fn)
        if held is None:
            checker = LockChecker(
                info.fn, cls.path, _module_lines(self.facts, cls.path)
            )
            held = self.facts.held_at[info.fn] = checker.held_at()
        return held

    def _local_holds(self, mname: str, line: int) -> set[frozenset[str]]:
        sets = self._held_at(mname).get(line)
        return sets if sets else {frozenset()}

    def _call_bindings(
        self, call: CallSite, caller_bind: dict[str, str]
    ) -> tuple[tuple[str, str], ...]:
        """Map the call's op-constant arguments onto callee parameters."""
        callee_fn = self.methods[call.callee][1].fn
        params = [a.arg for a in callee_fn.args.args]
        if params and params[0] == "self":
            params = params[1:]
        bound: dict[str, str] = {}

        def value_of(expr: ast.expr) -> str | None:
            ref = _resolve_op(expr, self.facts.constants, set(caller_bind))
            if ref.value is not None:
                return ref.value
            if ref.param is not None:
                return caller_bind.get(ref.param)
            return None

        for i, arg in enumerate(call.call.args):
            if i < len(params):
                val = value_of(arg)
                if val is not None:
                    bound[params[i]] = val
        for kw in call.call.keywords:
            if kw.arg is not None:
                val = value_of(kw.value)
                if val is not None:
                    bound[kw.arg] = val
        return tuple(sorted(bound.items()))

    def visit(
        self,
        mname: str,
        inherited: frozenset[str],
        bindings: tuple[tuple[str, str], ...],
        depth: int,
        detached: bool,
    ) -> None:
        if depth > MAX_DEPTH or mname not in self.methods:
            return
        key = (mname, inherited, bindings)
        if key in self._seen:
            return
        self._seen.add(key)
        cls, info = self.methods[mname]
        bind = dict(bindings)
        for send in info.sends:
            op = send.op.value
            if op is None and send.op.param is not None:
                op = bind.get(send.op.param)
            for local in self._local_holds(mname, send.line):
                self.out.append(
                    ResolvedSend(
                        op, send.mode, send.reply, inherited | local,
                        send.line, cls.path, mname,
                        detached or send.detached,
                    )
                )
        for call in info.calls:
            if call.callee not in self.methods:
                continue
            nested = self._call_bindings(call, bind)
            for local in self._local_holds(mname, call.line):
                self.visit(
                    call.callee,
                    inherited | local,
                    nested,
                    depth + 1,
                    detached or call.detached,
                )


def expand_sends(
    facts: ProjectFacts, class_name: str, roots: list[str] | None = None
) -> list[ResolvedSend]:
    """Every remote send reachable in ``class_name``, with the held-lock
    sets of every calling context.

    With ``roots=None`` the expansion starts at every method (so a
    helper's sends are seen both standalone and with each caller's held
    locks); with explicit roots (a handler name) it reports what *that*
    entry point can reach.
    """
    expander = _Expander(facts, class_name)
    for root in roots if roots is not None else sorted(expander.methods):
        expander.visit(root, frozenset(), (), 0, False)
    return expander.out


def _closure(
    methods: dict[str, tuple[ClassInfo, MethodInfo]], root: str
) -> set[str]:
    """Methods transitively reachable from ``root`` through awaited
    (non-detached) intra-class calls."""
    seen: set[str] = set()
    stack = [root]
    while stack:
        name = stack.pop()
        if name in seen or name not in methods:
            continue
        seen.add(name)
        for call in methods[name][1].calls:
            if not call.detached:
                stack.append(call.callee)
    return seen


def _find_cycle(edges: dict[str, set[str]]) -> list[str] | None:
    """Any directed cycle, as a node path ``[a, b, ..., a]``."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {node: WHITE for node in edges}
    stack: list[str] = []

    def dfs(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for dst in sorted(edges.get(node, ())):
            if color.get(dst, WHITE) == GRAY:
                return stack[stack.index(dst):] + [dst]
            if color.get(dst, WHITE) == WHITE and dst in edges:
                found = dfs(dst)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(edges):
        if color[node] == WHITE:
            found = dfs(node)
            if found is not None:
                return found
    return None


def analyze(facts: ProjectFacts) -> tuple[list[Finding], list[WaitforSummary]]:
    findings: dict[tuple[str, str, int, str], Finding] = {}
    summaries: list[WaitforSummary] = []

    def add(rule: str, path: str, line: int, message: str, op: str = "") -> None:
        findings.setdefault(
            (rule, path, line, op), Finding(rule, path, line, message)
        )

    for cls_name in facts.manager_classes():
        cls = facts.classes[cls_name]
        methods = facts.effective_methods(cls_name)
        regs = {
            op: row.handler
            for op, (row, _cls, _line) in facts.effective_ops(cls_name).items()
        }
        summary = WaitforSummary(cls_name, cls.path, ops=sorted(regs))

        sends = expand_sends(facts, cls_name)
        awaited = [
            s for s in sends if not s.detached and s.reply in AWAITED_REPLIES
        ]
        held_awaits = [s for s in awaited if s.held]

        # W3: single-page critical sections.
        for s in awaited:
            if len(s.held) >= 2:
                add(
                    "multi-lock-wait", s.path, s.line,
                    f"{s.method} awaits {s.op or s.mode} while holding "
                    f"{len(s.held)} locks ({', '.join(sorted(s.held))}): "
                    "critical sections spanning a remote wait must hold at "
                    "most one entry lock, or the wait-for graph gains a "
                    "lock-order cycle",
                    s.op or s.mode,
                )

        # Handler-side facts.
        blocking: dict[str, bool] = {}
        handler_held_awaits: dict[str, list[ResolvedSend]] = {}
        for op, handler in regs.items():
            blocking[op] = any(
                methods[m][1].blocking_acquires
                for m in _closure(methods, handler)
                if m in methods
            )
            handler_held_awaits[op] = [
                s
                for s in expand_sends(facts, cls_name, roots=[handler])
                if not s.detached and s.reply in AWAITED_REPLIES and s.held
            ]

        # W2: servers never await remotely while holding a lock.
        for op, bad in handler_held_awaits.items():
            for s in bad:
                add(
                    "hold-await-in-server", s.path, s.line,
                    f"handler {regs[op]} (op {op}) awaits "
                    f"{s.op or s.mode} while holding "
                    f"{', '.join(sorted(s.held))}: servers must release "
                    "before any remote wait (reply RETRY / Forward instead) "
                    "or the ownership-order discharge of the wait-for "
                    "graph no longer applies",
                    s.op or s.mode,
                )

        # W1: held all-replies collectives need fully lock-free servers.
        collective_held_ops: set[str] = set()
        for s in held_awaits:
            if s.reply != "all" or s.op is None or s.op not in regs:
                continue
            collective_held_ops.add(s.op)
            if blocking[s.op]:
                add(
                    "collective-locking-server", s.path, s.line,
                    f"{s.method} awaits all replies to {s.op} while holding "
                    f"{', '.join(sorted(s.held))}, but handler "
                    f"{regs[s.op]} blocking-acquires a lock: a collective "
                    "needs every target to answer, including nodes whose "
                    "entry lock is held by their own in-flight fault — the "
                    "server must be lock-free (try_acquire + RETRY at most)",
                    s.op,
                )

        # Wait-for graph.
        edges: dict[str, set[str]] = {ENTRY: set()}
        for s in held_awaits:
            if s.op is not None:
                edges[ENTRY].add(s.op)
        summary.held_await_ops = sorted(edges[ENTRY])
        for op in regs:
            edges.setdefault(op, set())
            for s in handler_held_awaits[op]:
                if s.op is not None:
                    edges[op].add(s.op)
            if blocking[op]:
                transient = not handler_held_awaits[op]
                discharged = transient and op not in collective_held_ops
                if discharged:
                    summary.discharged_ops.append(op)
                else:
                    edges[op].add(ENTRY)
        summary.discharged_ops.sort()

        cycle = _find_cycle(edges)
        if cycle is not None:
            summary.acyclic = False
            summary.cycle = cycle
            add(
                "waitfor-cycle", cls.path, cls.line,
                f"wait-for graph of {cls_name} has a cycle: "
                f"{' -> '.join(cycle)} (a held await whose servers can "
                "block on the held lock class; every node runs this "
                "manager, so the cycle can close across nodes)",
                "->".join(cycle),
            )
        summaries.append(summary)

    return list(findings.values()), summaries
