"""Control-flow graphs for Python function bodies.

The builder lowers one ``ast.FunctionDef`` into a graph of simple
statement nodes with four edge kinds:

``normal``
    fall-through to the next statement,
``true`` / ``false``
    the two outcomes of an ``if``/``while``/``for`` test,
``exc``
    the statement raised; control transfers to the innermost handler
    chain, then out through any ``finally`` blocks.

``try``/``finally`` is handled by *duplication*: the ``finally`` body is
lowered once per exit kind that can reach it (normal completion,
exception, ``return``, ``break``, ``continue``), each copy continuing to
that exit's real target.  This is what makes the lock/span balance
analyses path-aware on exception edges without any special-casing in the
analyses themselves.

Exception edges are added only where a statement *may plausibly raise*
(:func:`may_raise`): calls, yields, awaits, subscripts, attribute
stores, ``raise``, ``assert``.  Plain local assignments (``locked =
True``) and attribute reads bound to a name (``sid = span.sid``) do not
get exception edges — that precision is load-bearing: the protocol's
``locked``-flag and span-capture idioms sit between an acquire and its
``try`` and must not spawn spurious leak paths.

``match`` statements and other unmodelled compounds are lowered as
opaque single nodes (their bodies are not traversed); none occur in the
analyzed tree.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

__all__ = ["CFG", "Node", "build_cfg", "may_raise"]

#: Nested scopes a same-function walk must not descend into.
SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def scope_walk(root: ast.AST | list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk every node under ``root`` without entering nested function
    scopes (their yields/returns belong to *their* analysis)."""
    stack: list[ast.AST] = list(root) if isinstance(root, list) else [root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, SCOPE_BARRIERS):
            continue
        stack.extend(ast.iter_child_nodes(node))


def is_generator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom)) for node in scope_walk(fn.body)
    )


#: Expression nodes that make a statement a may-raise statement.
_RAISING_EXPRS = (ast.Call, ast.Yield, ast.YieldFrom, ast.Await, ast.Subscript)


def may_raise(node: ast.AST) -> bool:
    """Whether executing ``node`` can plausibly raise.

    Deliberately narrow: arithmetic and attribute *reads* are treated as
    non-raising so that the bookkeeping statements the protocol places
    between an acquire and its ``try`` do not manufacture leak paths.
    """
    for inner in scope_walk(node):
        if isinstance(inner, _RAISING_EXPRS):
            return True
        if isinstance(inner, (ast.Raise, ast.Assert)):
            return True
        if isinstance(inner, ast.Attribute) and isinstance(
            inner.ctx, (ast.Store, ast.Del)
        ):
            return True
        if isinstance(inner, ast.Name) and isinstance(inner.ctx, ast.Del):
            return True
    return False


@dataclass
class Node:
    """One CFG node.

    ``kind`` is one of ``entry``, ``exit``, ``exc_exit``, ``stmt``,
    ``branch`` (an ``if``/``while``/``for`` test), ``return``, ``raise``
    or ``dispatch`` (synthetic fan-out to exception handlers).
    """

    nid: int
    kind: str
    stmt: ast.AST | None = None
    line: int = 0


class Context(NamedTuple):
    """Continuation targets during lowering (all node ids)."""

    nxt: int
    exc: int
    ret: int
    brk: int | None
    cont: int | None


@dataclass
class CFG:
    func: ast.FunctionDef | ast.AsyncFunctionDef
    nodes: dict[int, Node] = field(default_factory=dict)
    succs: dict[int, list[tuple[int, str]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 1
    exc_exit: int = 2

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def reachable(self) -> set[int]:
        """Node ids reachable from the entry node."""
        seen = {self.entry}
        stack = [self.entry]
        while stack:
            nid = stack.pop()
            for dst, _ in self.succs.get(nid, ()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen


class _Builder:
    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.cfg = CFG(fn)
        self._next = 0
        self.cfg.entry = self._new("entry", line=fn.lineno)
        self.cfg.exit = self._new("exit")
        self.cfg.exc_exit = self._new("exc_exit")

    def _new(self, kind: str, stmt: ast.AST | None = None, line: int = 0) -> int:
        nid = self._next
        self._next += 1
        if stmt is not None and not line:
            line = getattr(stmt, "lineno", 0)
        self.cfg.nodes[nid] = Node(nid, kind, stmt, line)
        self.cfg.succs[nid] = []
        return nid

    def _edge(self, src: int, dst: int, kind: str = "normal") -> None:
        self.cfg.succs[src].append((dst, kind))

    def build(self) -> CFG:
        ctx = Context(
            nxt=self.cfg.exit,
            exc=self.cfg.exc_exit,
            ret=self.cfg.exit,
            brk=None,
            cont=None,
        )
        first = self._block(self.cfg.func.body, ctx)
        self._edge(self.cfg.entry, first)
        return self.cfg

    # -- lowering ------------------------------------------------------

    def _block(self, stmts: list[ast.stmt], ctx: Context) -> int:
        nxt = ctx.nxt
        for stmt in reversed(stmts):
            nxt = self._stmt(stmt, ctx._replace(nxt=nxt))
        return nxt

    def _stmt(self, stmt: ast.stmt, ctx: Context) -> int:
        if isinstance(stmt, ast.If):
            return self._if(stmt, ctx)
        if isinstance(stmt, ast.While):
            return self._while(stmt, ctx)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, ctx)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, ctx)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, ctx)
        if isinstance(stmt, ast.Return):
            nid = self._new("return", stmt)
            self._edge(nid, ctx.ret)
            if stmt.value is not None and may_raise(stmt.value):
                self._edge(nid, ctx.exc, "exc")
            return nid
        if isinstance(stmt, ast.Raise):
            nid = self._new("raise", stmt)
            self._edge(nid, ctx.exc, "exc")
            return nid
        if isinstance(stmt, ast.Break):
            nid = self._new("stmt", stmt)
            self._edge(nid, ctx.brk if ctx.brk is not None else ctx.nxt)
            return nid
        if isinstance(stmt, ast.Continue):
            nid = self._new("stmt", stmt)
            self._edge(nid, ctx.cont if ctx.cont is not None else ctx.nxt)
            return nid
        # Simple statement (assignments, expressions, nested defs, pass,
        # imports, asserts, and any unmodelled compound as one opaque
        # node).  Nested function/class bodies are opaque by design.
        nid = self._new("stmt", stmt)
        self._edge(nid, ctx.nxt)
        if not isinstance(stmt, SCOPE_BARRIERS + (ast.ClassDef,)) and may_raise(stmt):
            self._edge(nid, ctx.exc, "exc")
        return nid

    def _if(self, stmt: ast.If, ctx: Context) -> int:
        nid = self._new("branch", stmt)
        true = self._block(stmt.body, ctx)
        false = self._block(stmt.orelse, ctx)
        self._edge(nid, true, "true")
        self._edge(nid, false, "false")
        if may_raise(stmt.test):
            self._edge(nid, ctx.exc, "exc")
        return nid

    def _while(self, stmt: ast.While, ctx: Context) -> int:
        nid = self._new("branch", stmt)
        body = self._block(
            stmt.body, ctx._replace(brk=ctx.nxt, cont=nid)
        )
        self._edge(nid, body, "true")
        constant_true = isinstance(stmt.test, ast.Constant) and bool(stmt.test.value)
        if not constant_true:
            false = self._block(stmt.orelse, ctx)
            self._edge(nid, false, "false")
        if may_raise(stmt.test):
            self._edge(nid, ctx.exc, "exc")
        return nid

    def _for(self, stmt: ast.For | ast.AsyncFor, ctx: Context) -> int:
        nid = self._new("branch", stmt)
        body = self._block(
            stmt.body, ctx._replace(brk=ctx.nxt, cont=nid)
        )
        false = self._block(stmt.orelse, ctx)
        self._edge(nid, body, "true")
        self._edge(nid, false, "false")
        # The iteration protocol (and target unpacking) can always raise.
        self._edge(nid, ctx.exc, "exc")
        return nid

    def _with(self, stmt: ast.With | ast.AsyncWith, ctx: Context) -> int:
        # Context managers in the analyzed tree are transparent for the
        # tracked effects; the body keeps the surrounding continuations.
        nid = self._new("stmt", stmt)
        body = self._block(stmt.body, ctx)
        self._edge(nid, body)
        if any(may_raise(item.context_expr) for item in stmt.items):
            self._edge(nid, ctx.exc, "exc")
        return nid

    def _try(self, stmt: ast.Try, ctx: Context) -> int:
        if stmt.finalbody:
            # One copy of the finally per exit kind that can cross it.
            nxt_f = self._block(stmt.finalbody, ctx._replace(nxt=ctx.nxt))
            exc_f = self._block(stmt.finalbody, ctx._replace(nxt=ctx.exc))
            ret_f = self._block(stmt.finalbody, ctx._replace(nxt=ctx.ret))
            brk_f = (
                self._block(stmt.finalbody, ctx._replace(nxt=ctx.brk))
                if ctx.brk is not None
                else None
            )
            cont_f = (
                self._block(stmt.finalbody, ctx._replace(nxt=ctx.cont))
                if ctx.cont is not None
                else None
            )
        else:
            nxt_f, exc_f, ret_f = ctx.nxt, ctx.exc, ctx.ret
            brk_f, cont_f = ctx.brk, ctx.cont

        inner = Context(nxt=nxt_f, exc=exc_f, ret=ret_f, brk=brk_f, cont=cont_f)

        if stmt.handlers:
            dispatch = self._new("dispatch", stmt)
            for handler in stmt.handlers:
                h_entry = self._block(handler.body, inner)
                self._edge(dispatch, h_entry)
            # No handler matched (or a handler re-raised): the exception
            # still crosses the finally.
            self._edge(dispatch, exc_f, "exc")
            body_exc = dispatch
        else:
            body_exc = exc_f

        after_body = (
            self._block(stmt.orelse, inner) if stmt.orelse else nxt_f
        )
        return self._block(stmt.body, inner._replace(nxt=after_body, exc=body_exc))


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """Lower one function body to its control-flow graph."""
    return _Builder(fn).build()
