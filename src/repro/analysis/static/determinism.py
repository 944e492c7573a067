"""Determinism lint: the simulation must be a pure function of its seed.

Every experiment in the repro is replayable — same config and seed,
same event trace, byte-identical metrics.  Four classes of constructs
silently break that contract inside the simulated world
(``repro.sim``/``svm``/``net``/``proc``) and in what observes it
(``repro.obs``/``metrics``, whose exports are asserted bit-for-bit), and
are banned there:

``det-wallclock``
    ``time.time()``/``monotonic()``/``perf_counter()`` and
    ``datetime.now()`` read the host clock; simulated code must read
    ``sim.now``.

``det-unseeded-random``
    the global ``random`` module, ``random.Random()``,
    ``np.random.default_rng()`` or ``SeedSequence()`` without a seed
    draw entropy from the OS; randomness must come from the named,
    cluster-seed-derived streams of ``repro.sim.rng``.

``det-id-order``
    sorting or min/max keyed on ``id(...)`` orders by CPython heap
    address, which varies run to run.

``det-set-iteration``
    iterating a set (or materialising one with ``tuple``/``list``)
    feeds hash order into the schedule; wrap the set in ``sorted(...)``
    first.  Membership tests, ``len`` and truthiness are fine.

Pure AST, per module; no dataflow needed.
"""

from __future__ import annotations

import ast

from repro.analysis.static.facts import Module
from repro.analysis.static.findings import Finding

__all__ = ["determinism_findings"]

_WALLCLOCK_ATTRS = (
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
)

#: Comprehension node types whose generators iterate.
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_set_expr(expr: ast.expr, set_names: set[str]) -> bool:
    """Syntactic 'this expression is a set' judgement."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("set", "frozenset"):
            return True
    if isinstance(expr, ast.Attribute) and expr.attr == "copy_set":
        return True
    if isinstance(expr, ast.Name) and expr.id in set_names:
        return True
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(expr.left, set_names) or _is_set_expr(
            expr.right, set_names
        )
    return False


def _annotation_is_set(annotation: ast.expr | None) -> bool:
    if annotation is None:
        return False
    rendered = ast.unparse(annotation)
    return rendered.startswith(("set[", "frozenset[", "Set[", "FrozenSet["))


def _set_names(nodes: list[ast.AST]) -> set[str]:
    """Names bound (anywhere in the module) to a set-valued expression.

    Flow-insensitive on purpose: a name that is *ever* a set is treated
    as a set at every iteration site, which errs towards reporting."""
    names: set[str] = set()
    binders = [
        node for node in nodes
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.arg))
    ]
    changed = True
    while changed:
        changed = False
        for node in binders:
            target: ast.expr | None = None
            value: ast.expr | None = None
            annotation: ast.expr | None = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value, annotation = node.target, node.value, node.annotation
            elif isinstance(node, ast.arg):
                if _annotation_is_set(node.annotation) and node.arg not in names:
                    names.add(node.arg)
                    changed = True
                continue
            else:
                continue
            if not isinstance(target, ast.Name) or target.id in names:
                continue
            if _annotation_is_set(annotation) or (
                value is not None and _is_set_expr(value, names)
            ):
                names.add(target.id)
                changed = True
    return names


def _contains_id_call(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
        ):
            return True
        if isinstance(node, ast.Name) and node.id == "id":
            return True
    return False


def _imports_random(nodes: list[ast.AST]) -> bool:
    for node in nodes:
        if isinstance(node, ast.Import):
            if any(alias.name == "random" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                return True
    return False


def determinism_findings(module: Module) -> list[Finding]:
    findings: list[Finding] = []
    path = module.path
    nodes = module.nodes  # the one walk of this module
    set_names = _set_names(nodes)
    stdlib_random = _imports_random(nodes)

    def add(rule: str, line: int, message: str) -> None:
        findings.append(Finding(rule, path, line, message))

    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                base, attr = func.value.id, func.attr
                if base == "time" and attr in _WALLCLOCK_ATTRS:
                    add(
                        "det-wallclock", node.lineno,
                        f"time.{attr}() reads the host clock: simulated "
                        "code must read sim.now (wall-clock makes replays "
                        "diverge run to run)",
                    )
                elif base == "datetime" and attr in ("now", "utcnow", "today"):
                    add(
                        "det-wallclock", node.lineno,
                        f"datetime.{attr}() reads the host clock: simulated "
                        "code must derive timestamps from sim.now",
                    )
                elif base == "random" and stdlib_random:
                    if attr == "Random" and not node.args:
                        add(
                            "det-unseeded-random", node.lineno,
                            "random.Random() without a seed draws OS "
                            "entropy: use a repro.sim.rng stream",
                        )
                    elif attr != "Random":
                        add(
                            "det-unseeded-random", node.lineno,
                            f"random.{attr}() uses the process-global "
                            "generator: use a named repro.sim.rng stream "
                            "derived from the cluster seed",
                        )
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "default_rng"
                and not node.args
                and not node.keywords
            ):
                add(
                    "det-unseeded-random", node.lineno,
                    "default_rng() without a seed draws OS entropy: pass a "
                    "SeedSequence derived from the cluster seed",
                )
            if (
                isinstance(func, (ast.Name, ast.Attribute))
                and (
                    func.id if isinstance(func, ast.Name) else func.attr
                ) == "SeedSequence"
                and not node.args
                and not node.keywords
            ):
                add(
                    "det-unseeded-random", node.lineno,
                    "SeedSequence() without a seed draws OS entropy: derive "
                    "it from the cluster seed",
                )

            # id()-keyed ordering.
            is_order_call = (
                isinstance(func, ast.Name) and func.id in ("sorted", "min", "max")
            ) or (isinstance(func, ast.Attribute) and func.attr == "sort")
            if is_order_call:
                for kw in node.keywords:
                    if kw.arg == "key" and _contains_id_call(kw.value):
                        add(
                            "det-id-order", node.lineno,
                            "ordering keyed on id() is heap-address order, "
                            "different every run: key on a stable field "
                            "(sequence number, name)",
                        )

            # tuple(<set>) / list(<set>) materialise hash order.
            if (
                isinstance(func, ast.Name)
                and func.id in ("tuple", "list")
                and len(node.args) == 1
                and _is_set_expr(node.args[0], set_names)
            ):
                add(
                    "det-set-iteration", node.lineno,
                    f"{func.id}(...) over a set materialises hash order "
                    "into the schedule: wrap the set in sorted(...) first",
                )

        iters: list[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, _COMPREHENSIONS):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it, set_names):
                add(
                    "det-set-iteration", it.lineno,
                    "iterating a set feeds hash order into the schedule: "
                    "wrap the set in sorted(...) first",
                )

    return findings
