"""Held-lock-set abstract interpretation over the protocol sources.

This is the path-sensitive port of the legacy lint's balance rules: it
tracks three kinds of *tokens* through each function's CFG —

- ``lock``: a held ``PageTableEntry`` lock (``<x>.lock.acquire()`` or the
  held branch of the ``try_acquire`` fast path),
- ``pw``: an open ``acquire_page_write`` section,
- ``span``: an open observability span (effect generators only),

and reports any token still held on a path out of the function
(normal *or* exceptional).  Because the analysis follows real control
flow, the idioms the old statement-shape rules needed special cases or
annotations for fall out naturally:

- ``if not e.lock.try_acquire(): yield from e.lock.acquire()`` — branch
  refinement holds the lock on the fall-through edge;
- the ``locked = True`` flag pattern of the fault servers — the
  environment tracks the flag, so ``finally: if locked: release()`` is
  understood per path;
- intentional hand-offs (``acquire_page_write`` returning the locked
  entry) — a token whose guarded object or binding variable appears in a
  ``return`` expression is being handed to the caller, which replaces
  the old ``# lint: keeps-lock`` annotation.

The legacy suppression comments are still honoured for cases the
inference cannot see (none remain in-tree).  The syntactic rules that
need no dataflow (``return`` in a generator ``finally``, discarded
``CancelHandle``\\ s) are ported verbatim; the lock-free-server rule
checks the handlers whose op-table row says ``lock_free=True``
(:meth:`facts.ProjectFacts.lock_free_handlers`), whatever they are named.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, Iterable, NamedTuple

from repro.analysis.static.cfg import (
    CFG,
    Node,
    build_cfg,
    is_generator,
    scope_walk,
)
from repro.analysis.static.dataflow import run_forward
from repro.analysis.static.facts import Module
from repro.analysis.static.findings import Finding

__all__ = [
    "SUPPRESS_COMMENT",
    "SUPPRESS_HANDLE_COMMENT",
    "LockChecker",
    "discipline_findings",
]

_FunctionDef = ast.FunctionDef | ast.AsyncFunctionDef

SUPPRESS_COMMENT = "# lint: keeps-lock"
SUPPRESS_HANDLE_COMMENT = "# lint: drops-handle"


class Token(NamedTuple):
    kind: str  # 'lock' | 'pw' | 'span'
    key: str  # lock expression, or a per-site key for pw/span
    line: int
    suppressed: bool


#: Abstract environment values.  A binding may also be ("tok", Token).
EnvVal = tuple[object, ...]

V_TRUE: EnvVal = ("true",)
V_FALSE: EnvVal = ("false",)
V_NONE: EnvVal = ("none",)


class LState(NamedTuple):
    held: frozenset[Token]
    env: tuple[tuple[str, EnvVal], ...]  # sorted; absence means "unknown"


def _env_get(state: LState, name: str) -> EnvVal | None:
    for key, value in state.env:
        if key == name:
            return value
    return None


def _env_set(state: LState, name: str, value: EnvVal | None) -> LState:
    items = [(k, v) for k, v in state.env if k != name]
    if value is not None:
        items.append((name, value))
    return LState(state.held, tuple(sorted(items)))


def _last2(expr: str) -> str:
    return ".".join(expr.split(".")[-2:])


def _is_lock_call(node: ast.AST, method: str) -> ast.expr | None:
    """``<x>.lock.<method>(...)`` → the ``<x>.lock`` expression."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == method):
        return None
    base = func.value
    if isinstance(base, ast.Attribute) and base.attr == "lock":
        return base
    return None


class LockChecker:
    """Run the token analysis over one function."""

    def __init__(
        self,
        fn: _FunctionDef,
        path: str,
        source_lines: list[str],
        *,
        track_locks: bool = True,
        track_spans: bool | None = None,
    ) -> None:
        self.fn = fn
        self.path = path
        self.source_lines = source_lines
        self.track_locks = track_locks
        self.track_spans = (
            is_generator(fn) if track_spans is None else track_spans
        )
        self.cfg: CFG = build_cfg(fn)
        self.states = run_forward(self.cfg, self)
        self._handed = self._handed_tokens()

    # -- analysis hooks ------------------------------------------------

    def initial(self, cfg: CFG) -> Iterable[LState]:
        return [LState(frozenset(), ())]

    def widen(self, state: LState) -> LState:
        return LState(state.held, ())

    def _suppressed_line(self, lineno: int) -> bool:
        line = (
            self.source_lines[lineno - 1]
            if 0 < lineno <= len(self.source_lines)
            else ""
        )
        return SUPPRESS_COMMENT in line

    def _tokens_in(self, expr: ast.AST, stmt_line: int) -> list[Token]:
        """Tokens created by evaluating ``expr`` (no IfExp splitting)."""
        tokens: list[Token] = []
        for node in scope_walk(expr):
            if not isinstance(node, ast.Call):
                continue
            line = getattr(node, "lineno", stmt_line)
            suppressed = self._suppressed_line(line) or self._suppressed_line(
                stmt_line
            )
            lock = _is_lock_call(node, "acquire")
            if lock is not None and self.track_locks:
                tokens.append(Token("lock", ast.unparse(lock), line, suppressed))
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "acquire_page_write":
                tokens.append(
                    Token("pw", f"page-write@{line}", line, suppressed)
                )
            elif func.attr == "span_begin" and self.track_spans:
                tokens.append(Token("span", f"span@{line}", line, suppressed))
        return tokens

    def _apply_releases(self, stmt: ast.AST, state: LState) -> LState:
        held: set[Token] = set(state.held)
        env = state.env
        for node in scope_walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            lock = _is_lock_call(node, "release")
            if lock is not None:
                wanted = ast.unparse(lock)
                held = {
                    tok
                    for tok in held
                    if not (
                        tok.kind == "lock"
                        and (tok.key == wanted or _last2(tok.key) == _last2(wanted))
                    )
                }
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "release_page_write":
                held = {tok for tok in held if tok.kind != "pw"}
            elif func.attr == "span_end" and node.args:
                arg = node.args[0]
                if isinstance(arg, ast.Name):
                    bound = _env_get(state, arg.id)
                    if bound is not None and bound[0] == "tok":
                        closed = bound[1]
                        if isinstance(closed, Token):
                            held.discard(closed)
        return LState(frozenset(held), env)

    @staticmethod
    def _const_value(expr: ast.expr) -> EnvVal | None:
        if isinstance(expr, ast.Constant):
            if expr.value is True:
                return V_TRUE
            if expr.value is False:
                return V_FALSE
            if expr.value is None:
                return V_NONE
        return None

    def _eval_value(
        self, expr: ast.expr, stmt_line: int
    ) -> list[tuple[list[Token], EnvVal | None]]:
        """Possible (created tokens, bound abstract value) outcomes."""
        if isinstance(expr, ast.IfExp):
            return self._eval_value(expr.body, stmt_line) + self._eval_value(
                expr.orelse, stmt_line
            )
        tokens = self._tokens_in(expr, stmt_line)
        if len(tokens) == 1:
            return [(tokens, ("tok", tokens[0]))]
        return [(tokens, self._const_value(expr))]

    def transfer(
        self, node: Node, state: LState
    ) -> tuple[list[LState], list[LState]]:
        if node.kind in ("entry", "exit", "exc_exit", "dispatch", "branch", "return"):
            return [state], [state]
        stmt = node.stmt
        assert stmt is not None
        base = self._apply_releases(stmt, state)

        target: str | None = None
        value: ast.expr | None = None
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
        ):
            target, value = stmt.targets[0].id, stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.value is not None
        ):
            target, value = stmt.target.id, stmt.value

        if target is not None and value is not None:
            outs: list[LState] = []
            for tokens, val in self._eval_value(value, node.line):
                post = LState(base.held | frozenset(tokens), base.env)
                outs.append(_env_set(post, target, val))
            return outs, [base]

        tokens = self._tokens_in(stmt, node.line)
        post = LState(base.held | frozenset(tokens), base.env)
        # Assignment through non-Name targets invalidates no tracked
        # bindings we rely on; rebinding a tracked Name is handled above.
        return [post], [base if tokens else post]

    def _try_acquire_lock(self, test: ast.expr) -> tuple[ast.expr | None, bool]:
        """(lock expr, held-on-true?) for ``try_acquire`` branch tests."""
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            lock = _is_lock_call(test.operand, "try_acquire")
            if lock is not None:
                return lock, False
            return None, False
        lock = _is_lock_call(test, "try_acquire")
        if lock is not None:
            return lock, True
        return None, False

    def refine(self, node: Node, state: LState, branch: bool) -> LState | None:
        stmt = node.stmt
        assert stmt is not None
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            if branch and isinstance(stmt.target, ast.Name):
                return _env_set(state, stmt.target.id, None)
            return state
        test = stmt.test if isinstance(stmt, (ast.If, ast.While)) else None
        if test is None:
            return state

        if self.track_locks:
            lock, held_on_true = self._try_acquire_lock(test)
            if lock is not None:
                if branch == held_on_true:
                    tok = Token(
                        "lock",
                        ast.unparse(lock),
                        node.line,
                        self._suppressed_line(node.line),
                    )
                    return LState(state.held | {tok}, state.env)
                return state

        negate = False
        if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
            test, negate = test.operand, True
        if negate:
            branch = not branch

        if isinstance(test, ast.Name):
            val = _env_get(state, test.id)
            if val in (V_FALSE, V_NONE):
                return None if branch else state
            if val == V_TRUE or (isinstance(val, tuple) and val[0] == "tok"):
                return state if branch else None
            return state

        if (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.left, ast.Name)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            is_none_branch = branch == isinstance(test.ops[0], ast.Is)
            val = _env_get(state, test.left.id)
            if val == V_NONE:
                return state if is_none_branch else None
            if val is not None:  # TRUE / FALSE / token: not None
                return None if is_none_branch else state
            if is_none_branch:
                return _env_set(state, test.left.id, V_NONE)
            return state

        return state

    # -- results -------------------------------------------------------

    def _handed_tokens(self) -> set[Token]:
        """Tokens intentionally handed to the caller via ``return``."""
        handed: set[Token] = set()
        for nid, node in self.cfg.nodes.items():
            if node.kind != "return":
                continue
            ret = node.stmt
            assert isinstance(ret, ast.Return)
            if ret.value is None:
                continue
            names = {
                inner.id
                for inner in scope_walk(ret.value)
                if isinstance(inner, ast.Name)
            }
            exprs = {
                ast.unparse(inner)
                for inner in scope_walk(ret.value)
                if isinstance(inner, (ast.Name, ast.Attribute))
            }
            for state in self.states.get(nid, ()):
                for tok in state.held:
                    if tok.kind == "lock":
                        guarded = tok.key[: -len(".lock")]
                        if guarded in exprs:
                            handed.add(tok)
                    else:
                        for name, val in state.env:
                            if (
                                name in names
                                and isinstance(val, tuple)
                                and val
                                and val[0] == "tok"
                                and val[1] == tok
                            ):
                                handed.add(tok)
        return handed

    def leak_findings(self) -> list[Finding]:
        held = {
            tok
            for nid in (self.cfg.exit, self.cfg.exc_exit)
            for state in self.states.get(nid, ())
            for tok in state.held
            if not tok.suppressed and tok not in self._handed
        }
        # One finding per (kind, key), at its first line: sorted, because
        # set order would let the hash seed pick which token is reported.
        leaked: dict[tuple[str, str], Token] = {}
        for tok in sorted(held, key=lambda tok: (tok.line, tok.key)):
            leaked.setdefault((tok.kind, tok.key), tok)
        findings = []
        for (kind, key), tok in leaked.items():
            if kind == "lock":
                message = (
                    f"{key}.acquire() may leak the held entry lock on a path "
                    f"out of {self.fn.name}: no try/finally releasing {key} "
                    "covers every exit (a leaked lock wedges every fault on "
                    f"the page; annotate with '{SUPPRESS_COMMENT}' if the "
                    "lock is intentionally handed to the caller)"
                )
                rule = "lock-balance"
            elif kind == "pw":
                message = (
                    "acquire_page_write(...) may leave the page-write section "
                    f"open on a path out of {self.fn.name}: no try/finally "
                    "calling release_page_write covers every exit (the page "
                    "would stay pinned with its entry lock held cluster-wide; "
                    f"annotate with '{SUPPRESS_COMMENT}' if the section is "
                    "intentionally handed to the caller)"
                )
                rule = "page-write-balance"
            else:
                message = (
                    f"span_begin(...) in effect generator {self.fn.name} may "
                    "leave its span open on a path out: no try/finally "
                    "calling span_end covers every exit (lost latency sample, "
                    "span drawn to end-of-run in the Perfetto export; "
                    f"annotate with '{SUPPRESS_COMMENT}' if the span is "
                    "intentionally handed to the caller)"
                )
                rule = "span-balance"
            findings.append(Finding(rule, self.path, tok.line, message))
        return findings

    def held_at(self) -> dict[int, set[frozenset[str]]]:
        """Possible held lock/page-write key sets per statement line
        (consumed by the wait-for analysis)."""
        held: dict[int, set[frozenset[str]]] = {}
        for nid, node in self.cfg.nodes.items():
            if node.stmt is None or not node.line:
                continue
            for state in self.states.get(nid, ()):
                keys = frozenset(
                    tok.key for tok in state.held if tok.kind in ("lock", "pw")
                )
                held.setdefault(node.line, set()).add(keys)
        return held


# ---------------------------------------------------------------------------
# syntactic rules (ported unchanged from the legacy linter)


def _lock_free_server_findings(
    path: str, functions: Iterable[_FunctionDef], lock_free: AbstractSet[ast.AST]
) -> list[Finding]:
    findings = []
    for fn in functions:
        if fn not in lock_free:
            continue
        for inner in ast.walk(fn):
            lock = _is_lock_call(inner, "acquire")
            if lock is not None:
                findings.append(
                    Finding(
                        "lock-free-server",
                        path,
                        inner.lineno,
                        f"{fn.name} acquires {ast.unparse(lock)}: a handler "
                        "whose op is declared lock_free must be lock-free "
                        "(deadlock cycle; see repro/svm/protocol.py)",
                    )
                )
    return findings


def _return_in_finally_findings(
    path: str, generators: Iterable[_FunctionDef]
) -> list[Finding]:
    findings = []
    for fn in generators:
        seen: set[int] = set()
        for inner in scope_walk(fn.body):
            if not (isinstance(inner, ast.Try) and inner.finalbody):
                continue
            for ret in scope_walk(inner.finalbody):
                if isinstance(ret, ast.Return) and ret.lineno not in seen:
                    seen.add(ret.lineno)
                    findings.append(
                        Finding(
                            "return-in-finally",
                            path,
                            ret.lineno,
                            f"return inside the finally of effect generator "
                            f"{fn.name}: it replaces whatever was in flight "
                            "(a propagating violation, a cancellation) with a "
                            "normal return — the finally may only clean up",
                        )
                    )
    return findings


def _discarded_handle_findings(
    path: str, nodes: Iterable[ast.AST], source_lines: list[str]
) -> list[Finding]:
    findings = []
    for node in nodes:
        if not isinstance(node, ast.Expr):
            continue
        call = node.value
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr in ("schedule", "schedule_at")
        ):
            continue
        line = (
            source_lines[node.lineno - 1]
            if node.lineno - 1 < len(source_lines)
            else ""
        )
        if SUPPRESS_HANDLE_COMMENT in line:
            continue
        variant = f"{func.attr}_nocancel"
        findings.append(
            Finding(
                "cancel-handle",
                path,
                node.lineno,
                f"{ast.unparse(func)}(...) discards its CancelHandle — "
                "these modules schedule an event per message/fault, so a "
                f"never-cancelled event must use {variant} (assign the "
                "handle if the event is genuinely cancellable; annotate "
                f"with '{SUPPRESS_HANDLE_COMMENT}' to override)",
            )
        )
    return findings


def discipline_findings(
    module: Module, lock_free: AbstractSet[ast.AST] = frozenset()
) -> list[Finding]:
    """All six legacy rules, the balance rules path-sensitively.

    ``lock_free`` holds the function definitions serving a ``lock_free``
    op-table row: any acquisition in one is a lock-free-server finding,
    so the balance rules do not track locks there (one finding, not two).
    The module is walked once (``module.nodes``) and each function's
    generator-ness judged once, for all the rules."""
    path, source_lines = module.path, module.source_lines
    functions = [node for node in module.nodes if isinstance(node, _FunctionDef)]
    generators = [fn for fn in functions if is_generator(fn)]
    findings = _lock_free_server_findings(path, functions, lock_free)
    findings += _return_in_finally_findings(path, generators)
    findings += _discarded_handle_findings(path, module.nodes, source_lines)
    effectful = set(generators)
    for fn in functions:
        checker = LockChecker(
            fn, path, source_lines,
            track_locks=fn not in lock_free, track_spans=fn in effectful,
        )
        findings += checker.leak_findings()
    return findings
