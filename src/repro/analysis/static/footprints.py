"""Interprocedural effect analysis over message handlers.

The schedule explorer's partial-order reduction rests on a claim about
*state footprints*: that the page number found in a delivery's payload
at the index path its op-table row declares (``Op.page``; rows come
parsed from :mod:`repro.analysis.static.facts`) names exactly the
per-page state the handler touches.  This module checks each handler
body against that column of its row.

For every row's handler we run an abstract interpretation over the
PR 5 CFG (:mod:`repro.analysis.static.cfg` + ``dataflow``): the abstract
environment maps local names to *payload projections* — ``payload``,
``payload[0]``, ``origin``, ``entry:payload`` (a page-table entry keyed
by the whole payload), ``frame:payload[0]`` (the physical frame keyed by
the payload's first element) and so on — and every statement's reads and
writes of protocol state are recorded as :class:`Effect` values
``(store, key, kind)``:

- ``entry`` — page-table entries (access bits, ownership, copy set,
  probOwner, epoch, the entry lock), keyed by page;
- ``pool`` — the physical-memory frame pool, whose recency *order* is
  state (LRU eviction), with kinds ``read``/``touch``/``drop``/``pin``/
  ``install`` (install may cascade into evictions: it also writes
  wildcard entries and disk);
- ``frame`` / ``disk`` — page image bytes in memory / on the paging
  disk, keyed by page;
- ``attr:<name>`` — per-instance manager state (``self._owners`` rows
  keyed by page; bare scalar reads and unkeyed writes use the ``*``
  key);
- ``payload`` — the delivered payload object itself (a *multicast
  payload is one shared object across all targets*, so a payload write
  is a covert cross-node channel);
- ``send`` — frame emissions (``emit``: replies, forwards, detached
  broadcasts — identity-stable, they reuse the request's
  ``origin.msg_id``) and awaited requests (``await``);
- ``counter`` / ``obs`` — monotone counters and pure observation,
  exempt by the observation axiom (they never feed back into protocol
  decisions and the explorer's state equivalence quotients them out);
- ``unknown`` — anything the analysis cannot classify (unrecognised
  call targets, writes through untracked aliases).

Method calls on ``self`` are expanded interprocedurally with the
argument projections bound to the callee's parameters (memoised per
``(class, method, bindings)``), so ``self.on_forward(page, ...)``
inside ``_serve_read`` contributes the subclass's owner-table write
*keyed by the handler's payload*.

:func:`certify_class` then checks each handler's inferred page keys
against its row's declared page — the certification the commutativity
matrix (:mod:`repro.analysis.static.commute`) is built on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.static import facts as facts_mod
from repro.analysis.static.cfg import CFG, Node, build_cfg
from repro.analysis.static.dataflow import run_forward

__all__ = [
    "Effect",
    "OpFootprint",
    "ClassFootprints",
    "EffectAnalyzer",
    "certify_class",
]

#: ``self.<attr>`` roots with modelled semantics: attribute chains from
#: these stay symbolic (``self.pager.disk``) so calls on them resolve to
#: effects instead of degrading to ``unknown``.
_NEUTRAL_ROOTS = frozenset({
    "memory", "pager", "table", "remote", "obs", "checker",
    "sim", "config", "counters", "layout",
})

#: Mutating methods of the aliasable entry sub-objects (``copy_set``)
#: and of plain containers reached through ``self.<attr>``.
_MUTATORS = frozenset({
    "add", "append", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
})

#: Read-only ndarray methods (anything else on a frame is a write).
_FRAME_READS = frozenset({
    "copy", "tobytes", "astype", "sum", "view", "mean", "any", "all",
})

#: Pure call targets by bare name; everything else unrecognised is
#: recorded as an ``unknown`` effect (conservative: demotes the op).
_NEUTRAL_CALLS = frozenset({
    "abs", "bool", "dict", "enumerate", "float", "frozenset", "int",
    "isinstance", "len", "list", "max", "min", "print", "range",
    "repr", "set", "sorted", "str", "sum", "tuple", "zip",
    "Compute", "Sleep", "Access",
})


@dataclass(frozen=True)
class Effect:
    """One abstract read or write of protocol state.

    ``key`` is a payload projection (``payload``, ``payload[0]``, ...),
    ``*`` (the whole store — eviction cascades, unkeyed container
    mutation, bare attribute access) or ``other`` (a value the analysis
    could not attribute to the payload).  ``path``/``line`` locate the
    statement for findings but do not participate in identity.
    """

    store: str
    key: str
    kind: str
    path: str = field(default="", compare=False)
    line: int = field(default=0, compare=False)

    def describe(self) -> str:
        key = f"[{self.key}]" if self.key else ""
        return f"{self.kind} {self.store}{key}"


@dataclass
class OpFootprint:
    """Certification result for one registered op of one class."""

    op: str
    handler: str
    handler_class: str
    declared: str | None  #: projection the row's ``page`` column declares
    used: tuple[str, ...]  #: page projections the handler actually keys by
    attributed: bool  #: page-attribution certified (sound to commute by page)
    emits: bool  #: replies/forwards/detached frames on some path
    awaits: bool  #: awaited request/broadcast on some path (demotes)
    effects: frozenset[Effect] = frozenset()
    #: (rule, message, path, line) tuples for the findings layer.
    problems: list[tuple[str, str, str, int]] = field(default_factory=list)


@dataclass
class ClassFootprints:
    """All certified ops of one manager class."""

    class_name: str
    algorithm: str  #: the class-body ``name`` attribute (or class name)
    path: str
    line: int
    ops: dict[str, OpFootprint] = field(default_factory=dict)


# ----------------------------------------------------------------------
# the abstract interpreter

#: Abstract values that stay meaningful across a call boundary.
_BINDABLE_PREFIXES = ("payload", "origin", "entry:", "part:", "frame:", "lock:")


def _bindable(value: str) -> str:
    return value if value.startswith(_BINDABLE_PREFIXES) else "other"


def _key_of(value: str) -> str:
    """The page key a value denotes when used as a store index."""
    if value == "payload" or value.startswith("payload["):
        return value
    return "other"


class _Collector:
    """Shared effect sink: first occurrence keeps its source location."""

    def __init__(self) -> None:
        self.effects: dict[Effect, Effect] = {}

    def add(self, effect: Effect) -> None:
        self.effects.setdefault(effect, effect)


class _EnvAnalysis:
    """Forward analysis whose state is the frozen local environment."""

    def __init__(self, evaluator: "_MethodEvaluator", init_env: dict[str, str]):
        self.evaluator = evaluator
        self.init_env = init_env

    def initial(self, cfg: CFG):
        return [frozenset(self.init_env.items())]

    def transfer(self, node: Node, state):
        env = dict(state)
        self.evaluator.execute(node, env)
        post = frozenset(env.items())
        # Exception edges keep the pre-statement environment: the
        # assignment may not have completed, and effects are a may-union
        # anyway.
        return [post], [state]

    def refine(self, node: Node, state, branch: bool):
        return state

    def widen(self, state):
        return frozenset()


class _MethodEvaluator:
    """Evaluates one method body, recording effects into a collector."""

    def __init__(
        self,
        analyzer: "EffectAnalyzer",
        root_class: str,
        path: str,
        collector: _Collector,
    ) -> None:
        self.analyzer = analyzer
        self.root_class = root_class
        self.path = path
        self.collector = collector

    def _emit(self, store: str, key: str, kind: str, node: ast.AST) -> None:
        self.collector.add(
            Effect(store, key, kind, self.path, getattr(node, "lineno", 0))
        )

    # -- statements ----------------------------------------------------

    def execute(self, node: Node, env: dict[str, str]) -> None:
        stmt = node.stmt
        if stmt is None:
            return
        if node.kind == "branch":
            if isinstance(stmt, (ast.If, ast.While)):
                self.eval(stmt.test, env)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                self.eval(stmt.iter, env)
                self._bind_target(stmt.target, "other", env)
            return
        if node.kind == "dispatch":
            return
        if isinstance(stmt, (ast.Return, ast.Raise)):
            value = stmt.value if isinstance(stmt, ast.Return) else stmt.exc
            if value is not None:
                self.eval(value, env)
            return
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, env)
            for target in stmt.targets:
                self._assign(target, value, stmt.value, env)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._assign(stmt.target, self.eval(stmt.value, env), stmt.value, env)
            return
        if isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value, env)
            self._store_target(stmt.target, env, also_read=True)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, value, env)
            return
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            return
        if isinstance(stmt, (ast.Pass, ast.Break, ast.Continue, ast.Global,
                             ast.Nonlocal, ast.Import, ast.ImportFrom,
                             ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Delete, ast.Try)):
            return
        # Unmodelled statement shapes degrade conservatively.
        self._emit("unknown", "", "stmt", stmt)

    def _bind_target(self, target: ast.expr, value: str, env: dict[str, str]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, elt in enumerate(target.elts):
                if value == "payload":
                    self._bind_target(elt, f"payload[{i}]", env)
                else:
                    self._bind_target(elt, "other", env)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, "other", env)

    def _assign(
        self,
        target: ast.expr,
        value: str,
        value_expr: ast.expr,
        env: dict[str, str],
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value_expr, (ast.Tuple, ast.List)) and len(
                value_expr.elts
            ) == len(target.elts):
                for elt, src in zip(target.elts, value_expr.elts):
                    self._bind_target(elt, _bindable(self.eval(src, env)), env)
            else:
                self._bind_target(target, value, env)
            return
        self._store_target(target, env)

    def _store_target(
        self, target: ast.expr, env: dict[str, str], also_read: bool = False
    ) -> None:
        """An attribute or subscript used as an assignment target."""
        if isinstance(target, ast.Name):
            env[target.id] = "other"
            return
        if isinstance(target, ast.Attribute):
            base_expr = target.value
            if isinstance(base_expr, ast.Name) and base_expr.id == "self":
                self._emit(f"attr:{target.attr}", "*", "write", target)
                return
            base = self.eval(base_expr, env)
            if base.startswith(("entry:", "part:")):
                key = base.split(":", 1)[1]
                if also_read:
                    self._emit("entry", key, "read", target)
                self._emit("entry", key, "write", target)
            elif base.startswith("frame:"):
                self._emit("frame", base.split(":", 1)[1], "write", target)
            elif base == "payload" or base.startswith("payload["):
                self._emit("payload", base, "write", target)
            elif base == "obs":
                self._emit("obs", "", "note", target)
            else:
                self._emit("unknown", "", "write", target)
            return
        if isinstance(target, ast.Subscript):
            self.eval(target.slice, env)
            base_expr = target.value
            if (
                isinstance(base_expr, ast.Attribute)
                and isinstance(base_expr.value, ast.Name)
                and base_expr.value.id == "self"
            ):
                key = _key_of(self.eval(target.slice, env))
                self._emit(f"attr:{base_expr.attr}", key, "write", target)
                return
            base = self.eval(base_expr, env)
            if base.startswith("frame:"):
                self._emit("frame", base.split(":", 1)[1], "write", target)
            elif base.startswith(("entry:", "part:")):
                self._emit("entry", base.split(":", 1)[1], "write", target)
            elif base == "payload" or base.startswith("payload["):
                self._emit("payload", base, "write", target)
            else:
                self._emit("unknown", "", "write", target)
            return
        self._emit("unknown", "", "write", target)

    # -- expressions ---------------------------------------------------

    def eval(self, expr: ast.expr, env: dict[str, str]) -> str:
        """Abstract value of ``expr``; records its effects as it goes."""
        if isinstance(expr, ast.Name):
            if expr.id == "self":
                return "self"
            return env.get(expr.id, "other")
        if isinstance(expr, ast.Constant):
            return "other"
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr, env)
        if isinstance(expr, ast.Subscript):
            return self._eval_subscript(expr, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Compare):
            return self._eval_compare(expr, env)
        if isinstance(expr, (ast.Yield, ast.YieldFrom, ast.Await)):
            if expr.value is not None:
                self.eval(expr.value, env)
            return "other"
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test, env)
            self.eval(expr.body, env)
            self.eval(expr.orelse, env)
            return "other"
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self.eval(value, env)
            return "other"
        if isinstance(expr, ast.BinOp):
            self.eval(expr.left, env)
            self.eval(expr.right, env)
            return "other"
        if isinstance(expr, ast.UnaryOp):
            self.eval(expr.operand, env)
            return "other"
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for elt in expr.elts:
                self.eval(elt, env)
            return "other"
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self.eval(key, env)
            for value in expr.values:
                self.eval(value, env)
            return "other"
        if isinstance(expr, ast.JoinedStr):
            for value in expr.values:
                self.eval(value, env)
            return "other"
        if isinstance(expr, ast.FormattedValue):
            self.eval(expr.value, env)
            return "other"
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value, env)
        if isinstance(expr, ast.Slice):
            for part in (expr.lower, expr.upper, expr.step):
                if part is not None:
                    self.eval(part, env)
            return "other"
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            # Comprehensions: evaluate the iterables (their effects are
            # real); element expressions see fresh names, approximated
            # by "other" bindings in a scratch environment.
            scratch = dict(env)
            for gen in expr.generators:
                self.eval(gen.iter, scratch)
                self._bind_target(gen.target, "other", scratch)
                for cond in gen.ifs:
                    self.eval(cond, scratch)
            if isinstance(expr, ast.DictComp):
                self.eval(expr.key, scratch)
                self.eval(expr.value, scratch)
            else:
                self.eval(expr.elt, scratch)
            return "other"
        if isinstance(expr, ast.Lambda):
            return "other"
        self._emit("unknown", "", "expr", expr)
        return "other"

    def _eval_attribute(self, expr: ast.Attribute, env: dict[str, str]) -> str:
        base = self.eval(expr.value, env)
        if base == "self":
            if expr.attr in _NEUTRAL_ROOTS:
                return f"self.{expr.attr}"
            # A bare read of per-instance state (scalars, flags, whole
            # containers): unkeyed.
            self._emit(f"attr:{expr.attr}", "*", "read", expr)
            return "other"
        if base.startswith("self."):
            return f"{base}.{expr.attr}"
        if base.startswith("entry:"):
            key = base.split(":", 1)[1]
            if expr.attr == "lock":
                return f"lock:{key}"
            self._emit("entry", key, "read", expr)
            if expr.attr == "copy_set":
                return f"part:{key}"
            return "other"
        if base.startswith("part:"):
            self._emit("entry", base.split(":", 1)[1], "read", expr)
            return "other"
        if base.startswith("frame:"):
            self._emit("frame", base.split(":", 1)[1], "read", expr)
            return "other"
        if base == "payload" or base.startswith("payload["):
            return "other"
        return "other"

    def _eval_subscript(self, expr: ast.Subscript, env: dict[str, str]) -> str:
        # self.<attr>[k]: a keyed row of per-instance manager state.
        if (
            isinstance(expr.value, ast.Attribute)
            and isinstance(expr.value.value, ast.Name)
            and expr.value.value.id == "self"
        ):
            key = _key_of(self.eval(expr.slice, env))
            self._emit(f"attr:{expr.value.attr}", key, "read", expr)
            return "other"
        base = self.eval(expr.value, env)
        index = self.eval(expr.slice, env)
        if base == "payload":
            if (
                isinstance(expr.slice, ast.Constant)
                and isinstance(expr.slice.value, int)
                and not isinstance(expr.slice.value, bool)
            ):
                return f"payload[{expr.slice.value}]"
            return "other"
        if base.startswith("frame:"):
            self._emit("frame", base.split(":", 1)[1], "read", expr)
            return "other"
        if base.startswith(("entry:", "part:")):
            self._emit("entry", base.split(":", 1)[1], "read", expr)
            return "other"
        del index
        return "other"

    def _eval_compare(self, expr: ast.Compare, env: dict[str, str]) -> str:
        left = self.eval(expr.left, env)
        current = left
        for op, comparator in zip(expr.ops, expr.comparators):
            right = self.eval(comparator, env)
            if isinstance(op, (ast.In, ast.NotIn)) and right == "self.memory":
                self._emit("pool", _key_of(current), "read", expr)
            current = right
        return "other"

    # -- calls ---------------------------------------------------------

    def _eval_call(self, expr: ast.Call, env: dict[str, str]) -> str:
        args = [self.eval(arg, env) for arg in expr.args]
        kwargs: dict[str, str] = {}
        for kw in expr.keywords:
            value = self.eval(kw.value, env)
            if kw.arg is not None:
                kwargs[kw.arg] = value
        func = expr.func
        if isinstance(func, ast.Name):
            return self._call_by_name(func.id, expr)
        if not isinstance(func, ast.Attribute):
            self._emit("unknown", "", "call", expr)
            return "other"
        meth = func.attr
        # self.<method>(...) — interprocedural expansion.
        if isinstance(func.value, ast.Name) and func.value.id == "self":
            self._expand_self_call(meth, expr, args, kwargs)
            return "other"
        # self.<attr>.<meth>(...) — container rows of manager state.
        if (
            isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == "self"
            and func.value.attr not in _NEUTRAL_ROOTS
        ):
            return self._container_call(func.value.attr, meth, expr, args)
        receiver = self.eval(func.value, env)
        return self._receiver_call(receiver, meth, expr, args, kwargs)

    def _call_by_name(self, name: str, expr: ast.Call) -> str:
        if name in ("Reply", "Forward"):
            self._emit("send", "", "emit", expr)
            return "other"
        if name in _NEUTRAL_CALLS or name.endswith(("Error", "Exception")):
            return "other"
        self._emit("unknown", "", f"call:{name}", expr)
        return "other"

    def _container_call(
        self, attr: str, meth: str, expr: ast.Call, args: list[str]
    ) -> str:
        store = f"attr:{attr}"
        key = _key_of(args[0]) if args else "*"
        if meth == "get":
            self._emit(store, key, "read", expr)
        elif meth in ("pop", "setdefault", "add", "discard", "remove"):
            self._emit(store, key, "write", expr)
        elif meth in _MUTATORS:  # clear/update/popitem/append/extend/insert
            self._emit(store, "*", "write", expr)
        else:
            self._emit(store, "*", "read", expr)
        return "other"

    def _receiver_call(
        self,
        receiver: str,
        meth: str,
        expr: ast.Call,
        args: list[str],
        kwargs: dict[str, str],
    ) -> str:
        key = _key_of(args[0]) if args else "other"
        if receiver == "self.memory":
            if meth == "data":
                self._emit("pool", key, "touch", expr)
                self._emit("frame", key, "read", expr)
                return f"frame:{key}"
            if meth == "share":
                # Hands the frame out as an image: a read of its bytes.
                self._emit("pool", key, "touch", expr)
                self._emit("frame", key, "read", expr)
            elif meth == "replace":
                # Swaps a resident frame: no eviction, one keyed frame.
                self._emit("pool", key, "touch", expr)
                self._emit("frame", key, "write", expr)
            elif meth == "make_writable":
                self._emit("frame", key, "write", expr)
            elif meth == "touch":
                self._emit("pool", key, "touch", expr)
            elif meth == "drop":
                self._emit("pool", key, "drop", expr)
            elif meth in ("pin", "unpin"):
                self._emit("pool", key, "pin", expr)
            elif meth in ("pinned", "__contains__", "frames_free", "resident"):
                self._emit("pool", key if args else "*", "read", expr)
            else:
                self._emit("pool", "*", "install", expr)
            return "other"
        if receiver == "self.pager":
            if meth in ("install", "try_install", "page_in"):
                # Installs may evict under frame pressure: the victim
                # entries and the paging disk are wildcard state.
                self._emit("pool", key, "install", expr)
                self._emit("entry", "*", "write", expr)
                self._emit("disk", "*", "write", expr)
            elif meth == "page_out":
                self._emit("pool", key, "drop", expr)
                self._emit("disk", key, "write", expr)
            else:
                self._emit("pool", "*", "install", expr)
                self._emit("disk", "*", "write", expr)
            return "other"
        if receiver == "self.pager.disk":
            if meth in ("read", "__contains__"):
                self._emit("disk", key, "read", expr)
            else:
                self._emit("disk", key, "write", expr)
            return "other"
        if receiver == "self.table":
            if meth == "entry":
                self._emit("entry", key, "read", expr)
                return f"entry:{key}"
            self._emit("entry", "*", "read", expr)
            return "other"
        if receiver == "self.counters":
            self._emit("counter", "", "inc", expr)
            return "other"
        if receiver in ("self.obs", "self.checker"):
            self._emit("obs", "", "note", expr)
            return "obs"
        if receiver == "self.remote" and meth in (
            "request", "broadcast", "multicast"
        ):
            scheme = kwargs.get("scheme")
            detached_none = meth == "broadcast" and self._scheme_is_none(expr)
            self._emit(
                "send", "", "emit" if detached_none else "await", expr
            )
            del scheme
            return "other"
        if receiver.startswith("self.remote"):
            # driver.spawn / register / local probes: emission or wiring.
            self._emit("send", "", "emit", expr)
            return "other"
        if receiver.startswith("lock:"):
            self._emit("entry", receiver.split(":", 1)[1], "lock", expr)
            return "other"
        if receiver.startswith("part:"):
            kind = "write" if meth in _MUTATORS else "read"
            self._emit("entry", receiver.split(":", 1)[1], kind, expr)
            return "other"
        if receiver.startswith("entry:"):
            # PageTableEntry methods (owner_access, ...) are pure queries.
            self._emit("entry", receiver.split(":", 1)[1], "read", expr)
            return "other"
        if receiver.startswith("frame:"):
            kind = "read" if meth in _FRAME_READS else "write"
            self._emit("frame", receiver.split(":", 1)[1], kind, expr)
            return "other"
        if receiver == "payload" or receiver.startswith("payload["):
            if meth in _MUTATORS or meth not in _FRAME_READS | {"index", "count", "get"}:
                if meth in _MUTATORS or meth in ("fill", "sort", "reverse"):
                    self._emit("payload", receiver, "write", expr)
            return "other"
        if receiver == "self.sim":
            self._emit("unknown", "", f"call:sim.{meth}", expr)
            return "other"
        if receiver.startswith("self."):
            # config/layout lookups and other modelled-neutral chains.
            return "other"
        if receiver == "obs":
            self._emit("obs", "", "note", expr)
            return "other"
        # A call on an untracked local: no modelled protocol state is
        # reachable through it (locals hold copies/scalars); benign.
        return "other"

    @staticmethod
    def _scheme_is_none(expr: ast.Call) -> bool:
        for kw in expr.keywords:
            if (
                kw.arg == "scheme"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value == "none"
            ):
                return True
        if len(expr.args) > 3:
            arg = expr.args[3]
            return isinstance(arg, ast.Constant) and arg.value == "none"
        return False

    def _expand_self_call(
        self,
        meth: str,
        expr: ast.Call,
        args: list[str],
        kwargs: dict[str, str],
    ) -> None:
        methods = self.analyzer.facts.effective_methods(self.root_class)
        found = methods.get(meth)
        if found is None:
            self._emit("unknown", "", f"call:self.{meth}", expr)
            return
        cls, info = found
        params = [a.arg for a in info.fn.args.args if a.arg != "self"]
        bindings: dict[str, str] = {}
        for name, value in zip(params, args):
            bindings[name] = _bindable(value)
        for name, value in kwargs.items():
            if name in params:
                bindings[name] = _bindable(value)
        for effect in self.analyzer.method_effects(
            self.root_class, meth, tuple(sorted(bindings.items()))
        ):
            self.collector.add(effect)
        del cls


class EffectAnalyzer:
    """Project-wide memoised effect analysis (one per ProjectFacts)."""

    def __init__(self, facts: facts_mod.ProjectFacts) -> None:
        self.facts = facts
        self._memo: dict[
            tuple[str, str, tuple[tuple[str, str], ...]], frozenset[Effect]
        ] = {}
        self._stack: set[tuple[str, str, tuple[tuple[str, str], ...]]] = set()

    def method_effects(
        self,
        root_class: str,
        method: str,
        bindings: tuple[tuple[str, str], ...],
    ) -> frozenset[Effect]:
        """Effects of ``method`` resolved against ``root_class``'s MRO,
        with parameters bound to the given abstract values."""
        key = (root_class, method, bindings)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if key in self._stack:
            return frozenset()  # recursion: the outer frame collects
        found = self.facts.effective_methods(root_class).get(method)
        if found is None:
            return frozenset(
                [Effect("unknown", "", f"call:self.{method}")]
            )
        cls, info = found
        self._stack.add(key)
        try:
            collector = _Collector()
            evaluator = _MethodEvaluator(self, root_class, cls.path, collector)
            env = {name: "other" for name in (
                a.arg for a in info.fn.args.args if a.arg != "self"
            )}
            env.update(dict(bindings))
            cfg = build_cfg(info.fn)
            run_forward(cfg, _EnvAnalysis(evaluator, env))
            result = frozenset(collector.effects.values())
        finally:
            self._stack.discard(key)
        self._memo[key] = result
        return result


# ----------------------------------------------------------------------
# certification

#: Stores whose effects must be keyed by the payload's page for the
#: handler to be page-attributable.
_KEYED_STORES = ("entry", "pool", "frame", "disk")


def _is_keyed_store(store: str) -> bool:
    return store in _KEYED_STORES or store.startswith("attr:")


def certify_class(
    facts: facts_mod.ProjectFacts,
    class_name: str,
    analyzer: EffectAnalyzer | None = None,
) -> ClassFootprints:
    """Certify every op-table row of ``class_name`` against its handler.

    Per op, the handler's effects are inferred and each page-keyed
    effect's key is compared to the projection the row's ``page``
    column declares (``()`` -> ``payload``, ``(0,)`` -> ``payload[0]``).
    An op is *attributed* when the row declares a page that covers
    every keyed use (wildcard eviction cascades stay local to the
    target node, so they do not break attribution — they only block
    same-node pairing, which the commutativity matrix handles per
    effect).  Anything else is demoted, with a finding explaining why."""
    analyzer = analyzer or EffectAnalyzer(facts)
    cls = facts.classes[class_name]
    algorithm = next(
        (c.constants["name"] for c in facts.mro(class_name) if "name" in c.constants),
        class_name,
    )
    out = ClassFootprints(class_name, algorithm, cls.path, cls.line)
    methods = facts.effective_methods(class_name)

    for op, (row, reg_cls, reg_line) in sorted(
        facts.effective_ops(class_name).items()
    ):
        handler = row.handler
        found = methods.get(handler)
        if found is None:
            fp = OpFootprint(op, handler, reg_cls.name, None, (), False, False, False)
            fp.problems.append((
                "footprint-unattributable",
                f"op {op!r} names unknown handler {handler!r}",
                reg_cls.path, reg_line,
            ))
            out.ops[op] = fp
            continue
        handler_cls, info = found
        params = [a.arg for a in info.fn.args.args if a.arg != "self"]
        bindings: list[tuple[str, str]] = []
        if len(params) >= 1:
            bindings.append((params[0], "origin"))
        if len(params) >= 2:
            bindings.append((params[1], "payload"))
        effects = analyzer.method_effects(
            class_name, handler, tuple(sorted(bindings))
        )
        declared = (
            None
            if row.page is None
            else "payload" + "".join(f"[{index}]" for index in row.page)
        )

        keyed = [e for e in effects if _is_keyed_store(e.store)]
        page_keys = sorted(
            {e.key for e in keyed if e.key not in ("*", "other")}
        )
        where = f"{handler_cls.name}.{handler}"
        problems: list[tuple[str, str, str, int]] = []

        for e in effects:
            if e.store == "unknown":
                problems.append((
                    "footprint-unattributable",
                    f"{where} (op {op!r}) has an unanalyzable effect "
                    f"({e.kind}); its deliveries cannot be page-attributed",
                    e.path or handler_cls.path, e.line,
                ))
            elif e.store == "payload" and e.kind == "write":
                problems.append((
                    "footprint-unattributable",
                    f"{where} (op {op!r}) mutates the delivered payload "
                    f"({e.key}) — a multicast payload is one shared object "
                    "across targets, so this is a cross-node channel",
                    e.path or handler_cls.path, e.line,
                ))
            elif _is_keyed_store(e.store) and e.key == "other":
                problems.append((
                    "footprint-unattributable",
                    f"{where} (op {op!r}) touches {e.describe()} keyed by "
                    "something that is not a payload projection",
                    e.path or handler_cls.path, e.line,
                ))
        awaits = any(
            e.store == "send" and e.kind == "await" for e in effects
        )
        emits = any(
            e.store == "send" and e.kind == "emit" for e in effects
        )
        if awaits:
            problems.append((
                "footprint-unattributable",
                f"{where} (op {op!r}) awaits a remote send while serving; "
                "its delivery cannot be treated as one atomic footprint",
                handler_cls.path, info.fn.lineno,
            ))

        if page_keys and declared is None:
            problems.append((
                "footprint-under-declared",
                f"{where} (op {op!r}) keys state by {', '.join(page_keys)} "
                "but the op's row declares no page",
                handler_cls.path, info.fn.lineno,
            ))
        elif declared is not None:
            wrong = [k for k in page_keys if k != declared]
            if wrong:
                problems.append((
                    "footprint-under-declared",
                    f"{where} (op {op!r}) declares footprint {declared} "
                    f"but keys state by {', '.join(wrong)}",
                    handler_cls.path, info.fn.lineno,
                ))

        attributed = not problems and declared is not None
        fp = OpFootprint(
            op=op,
            handler=handler,
            handler_class=handler_cls.name,
            declared=declared,
            used=tuple(page_keys),
            attributed=attributed,
            emits=emits,
            awaits=awaits,
            effects=effects,
        )
        fp.problems = problems
        out.ops[op] = fp
    return out
