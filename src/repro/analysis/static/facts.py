"""Protocol facts: classes, handlers, message sends, intra-class calls.

This is the syntactic substrate shared by the wait-for and
message-exhaustiveness analyses.  It extracts, per module and per class:

- op-name constants (``OP_READ = ...`` and friends, resolved
  project-wide so ``from ... import OP_READ`` works),
- the op table: the :class:`repro.svm.protocol.Op` row literals of each
  class body's ``OPS`` tuple, parsed once here into the same row type
  the runtime registers from — every analysis that needs to know which
  ops a class serves, by which handler, keyed by which page, lock-free
  or fan-out-safe, reads these rows,
- remote sends (``.request``/``.broadcast``/``.multicast`` calls) with
  their op argument resolved to a constant, a callee parameter, or
  unknown,
- intra-class call sites (``self._helper(...)``) so the wait-for
  analysis can expand held-lock sets interprocedurally, with op
  constants threaded through callee parameters (this is how
  ``_locate_request(page, entry, op, write)`` is seen to send
  ``OP_READ``/``OP_WRITE``/``OP_CHOWN``),
- calls detached via ``.spawn(...)`` (fire-and-forget tasks are not
  awaited, so they contribute sends but never hold-awaits).

Class hierarchies are resolved by name across the analyzed files, so a
subclass manager inherits its base's rows, sends and helpers — a new
MSI/LRC manager gets the whole verification for free by subclassing
``CoherenceProtocol``.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.static.cfg import scope_walk
from repro.svm.protocol import Op

__all__ = ["OpRef", "Send", "CallSite", "MethodInfo", "ClassInfo", "Module",
           "ProjectFacts", "collect", "load_modules"]

#: Reply expectation per send mode/scheme.
REPLY_UNICAST = "unicast"  # point-to-point, exactly one reply required
REPLY_ALL = "all"  # every target must reply
REPLY_ANY = "any"  # first reply wins; silence is legal
REPLY_NONE = "none"  # fire and forget


@dataclass(frozen=True)
class OpRef:
    """An op argument: resolved constant, callee parameter, or unknown."""

    value: str | None = None
    param: str | None = None


@dataclass
class Send:
    op: OpRef
    mode: str  # 'request' | 'broadcast' | 'multicast'
    reply: str  # one of the REPLY_* expectations
    line: int
    detached: bool


@dataclass
class CallSite:
    callee: str
    call: ast.Call
    line: int
    detached: bool


@dataclass
class MethodInfo:
    name: str
    fn: ast.FunctionDef | ast.AsyncFunctionDef
    sends: list[Send] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    #: Contains a *blocking* lock acquisition (``.lock.acquire()`` or
    #: ``acquire_page_write``).  ``try_acquire`` is non-blocking and does
    #: not count: a server that try-acquires and replies RETRY never
    #: participates in a wait-for cycle.
    blocking_acquires: bool = False


@dataclass
class ClassInfo:
    name: str
    bases: list[str]
    path: str
    line: int
    methods: dict[str, MethodInfo] = field(default_factory=dict)
    #: This class's own op-table rows, each with its source line.
    ops: list[tuple[Op, int]] = field(default_factory=list)
    #: Class-body string constants (``name = "dynamic"``).
    constants: dict[str, str] = field(default_factory=dict)


@dataclass
class Module:
    path: str
    tree: ast.Module
    source_lines: list[str]

    @functools.cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree, in ``ast.walk`` order.  Walked once:
        the per-module rules filter this list instead of re-walking."""
        return list(ast.walk(self.tree))


@dataclass
class ProjectFacts:
    modules: list[Module] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)
    #: Held lock/page-write key sets per statement line, by function
    #: definition: the wait-for analysis fills it, once per function
    #: however many manager classes inherit the method.
    held_at: dict[ast.AST, dict[int, set[frozenset[str]]]] = field(
        default_factory=dict
    )

    def mro(self, name: str) -> list[ClassInfo]:
        """The class and its known bases, nearest first (by-name, linear
        walk — fine for the single-inheritance protocol hierarchy)."""
        out: list[ClassInfo] = []
        seen: set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            info = self.classes[current]
            out.append(info)
            queue.extend(info.bases)
        return out

    def effective_methods(self, name: str) -> dict[str, tuple[ClassInfo, MethodInfo]]:
        """Method resolution: nearest definition wins."""
        methods: dict[str, tuple[ClassInfo, MethodInfo]] = {}
        for cls in self.mro(name):
            for mname, info in cls.methods.items():
                methods.setdefault(mname, (cls, info))
        return methods

    def effective_ops(self, name: str) -> dict[str, tuple[Op, ClassInfo, int]]:
        """op → (row, declaring class, line), merged along the MRO as
        ``CoherenceProtocol.op_table`` merges at run time (nearest wins)."""
        rows: dict[str, tuple[Op, ClassInfo, int]] = {}
        for cls in self.mro(name):
            for row, line in cls.ops:
                rows.setdefault(row.name, (row, cls, line))
        return rows

    def manager_classes(self) -> list[str]:
        """Classes whose (merged) op table has at least one row."""
        return sorted(name for name in self.classes if self.effective_ops(name))

    def lock_free_handlers(self) -> set[ast.AST]:
        """The function definitions serving a ``lock_free`` row."""
        handlers: set[ast.AST] = set()
        for name in self.manager_classes():
            methods = self.effective_methods(name)
            for row, _cls, _line in self.effective_ops(name).values():
                if row.lock_free and row.handler in methods:
                    handlers.add(methods[row.handler][1].fn)
        return handlers


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def _spawn_argument_ids(fn: ast.AST) -> set[int]:
    """ids of every AST node inside an argument of a ``.spawn(...)`` call."""
    detached: set[int] = set()
    for node in scope_walk(fn):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "spawn"
        ):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for inner in ast.walk(arg):
                detached.add(id(inner))
    return detached


def _resolve_op(
    expr: ast.expr | None,
    constants: dict[str, str],
    params: set[str],
) -> OpRef:
    if expr is None:
        return OpRef()
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return OpRef(value=expr.value)
    if isinstance(expr, ast.Name):
        if expr.id in constants:
            return OpRef(value=constants[expr.id])
        if expr.id in params:
            return OpRef(param=expr.id)
    return OpRef()


def _send_of(
    call: ast.Call, constants: dict[str, str], params: set[str], detached: bool
) -> Send | None:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg}
    if func.attr == "request":
        op = call.args[1] if len(call.args) > 1 else kwargs.get("op")
        return Send(
            _resolve_op(op, constants, params), "request", REPLY_UNICAST,
            call.lineno, detached,
        )
    if func.attr == "multicast":
        op = call.args[1] if len(call.args) > 1 else kwargs.get("op")
        return Send(
            _resolve_op(op, constants, params), "multicast", REPLY_ALL,
            call.lineno, detached,
        )
    if func.attr == "broadcast":
        op = call.args[0] if call.args else kwargs.get("op")
        scheme_expr = (
            call.args[3] if len(call.args) > 3 else kwargs.get("scheme")
        )
        scheme = "all"  # RemoteOp.broadcast's default reply scheme
        if isinstance(scheme_expr, ast.Constant) and isinstance(
            scheme_expr.value, str
        ):
            scheme = scheme_expr.value
        return Send(
            _resolve_op(op, constants, params), "broadcast", scheme,
            call.lineno, detached,
        )
    return None


def _method_info(
    fn: ast.FunctionDef | ast.AsyncFunctionDef, constants: dict[str, str]
) -> MethodInfo:
    info = MethodInfo(fn.name, fn)
    params = {arg.arg for arg in fn.args.args + fn.args.kwonlyargs}
    detached_ids = _spawn_argument_ids(fn)
    for node in scope_walk(fn.body):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        detached = id(node) in detached_ids
        send = _send_of(node, constants, params, detached)
        if send is not None:
            info.sends.append(send)
            continue
        if func.attr == "acquire":
            base = func.value
            if isinstance(base, ast.Attribute) and base.attr == "lock":
                info.blocking_acquires = True
        elif func.attr == "acquire_page_write":
            info.blocking_acquires = True
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            info.calls.append(
                CallSite(func.attr, node, node.lineno, detached)
            )
    return info


def _string_constants(body: list[ast.stmt]) -> dict[str, str]:
    """``NAME = "literal"`` assignments of a module or class body."""
    return {
        stmt.targets[0].id: stmt.value.value
        for stmt in body
        if isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
    }


def _row_of(call: ast.Call, constants: dict[str, str]) -> Op | None:
    """One ``Op(...)`` row literal, bound as the row type binds it.  The
    op name may be a project constant; any other column the parser
    cannot read keeps its default — so an unreadable ``page`` is an
    undeclared one, reported as soon as the handler keys state by it."""
    exprs = dict(zip(Op._fields, call.args))
    exprs.update((kw.arg, kw.value) for kw in call.keywords if kw.arg in Op._fields)
    columns: dict[str, Any] = {}
    for column, expr in exprs.items():
        try:
            columns[column] = ast.literal_eval(expr)
        except ValueError:
            pass
    columns["name"] = _resolve_op(exprs.get("name"), constants, set()).value
    page = columns.get("page")
    if not (isinstance(page, tuple) and all(isinstance(i, int) for i in page)):
        columns.pop("page", None)
    if columns["name"] is None or not isinstance(columns.get("handler"), str):
        return None
    return Op(**columns)


def _table_rows(
    body: list[ast.stmt], constants: dict[str, str]
) -> list[tuple[Op, int]]:
    """The rows of a class body's ``OPS`` tuple, each with its line."""
    rows: list[tuple[Op, int]] = []
    for stmt in body:
        if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            continue
        target = stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.target
        if not (isinstance(target, ast.Name) and target.id == "OPS"):
            continue
        for call in getattr(stmt.value, "elts", ()):
            row = _row_of(call, constants) if isinstance(call, ast.Call) else None
            if row is not None:
                rows.append((row, call.lineno))
    return rows


def load_modules(
    paths: list[str], loaded: dict[str, Module] | None = None
) -> list[Module]:
    """Parse every file under ``paths``; ``loaded`` (by file name) lets
    calls whose path sets overlap parse, and later walk, a file once."""
    loaded = {} if loaded is None else loaded
    modules: list[Module] = []
    for raw in paths:
        path = Path(raw)
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            if str(file) not in loaded:
                source = file.read_text(encoding="utf-8")
                loaded[str(file)] = Module(
                    str(file), ast.parse(source, filename=str(file)),
                    source.splitlines(),
                )
            modules.append(loaded[str(file)])
    return modules


def collect(modules: list[Module]) -> ProjectFacts:
    facts = ProjectFacts(modules=modules)
    # Constants first, project-wide, so imports resolve across modules.
    for module in modules:
        facts.constants.update(_string_constants(module.tree.body))
    for module in modules:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            bases = [b for b in (_base_name(base) for base in stmt.bases) if b]
            cls = ClassInfo(stmt.name, bases, module.path, stmt.lineno)
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls.methods[item.name] = _method_info(item, facts.constants)
            cls.ops = _table_rows(stmt.body, facts.constants)
            cls.constants = _string_constants(stmt.body)
            facts.classes[cls.name] = cls
    return facts
