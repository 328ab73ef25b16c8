"""The detlint rule library.

Each rule is a pure function of one parsed module (no suppression logic —
the engine layers that on).  The rules encode the invariants the
differential test harness checks dynamically:

* ``workers=N`` must be bit-identical to ``workers=1``  → DET001, DET002,
  DET003, DET004 (no ambient entropy, no wall clock, no hash-order
  dependence, no unpicklable/stateful pool dispatch);
* the resilient path's guards must be the *only* place failures are
  swallowed  → EXC001.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.analysis.config import path_matches
from repro.analysis.findings import Finding, Rule

if TYPE_CHECKING:  # pragma: no cover - engine imports rules at runtime
    from repro.analysis.engine import ModuleContext

__all__ = ["RULES", "rule_registry", "ImportMap"]


# ---------------------------------------------------------------------------
# Shared helpers


class ImportMap:
    """Local-name → dotted-origin resolution for one module.

    ``import numpy as np`` maps ``np`` to ``numpy``;
    ``from random import shuffle as sh`` maps ``sh`` to
    ``random.shuffle``; attribute chains resolve through the map, so
    ``np.random.seed`` resolves to ``numpy.random.seed``.
    """

    def __init__(self, tree: ast.AST) -> None:
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    origin = alias.name if alias.asname else local
                    self.names[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.level:  # relative import: project-internal
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.names[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> str | None:
        """Dotted origin of a Name/Attribute chain, or None."""
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        origin = self.names.get(current.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


def _call_func_ids(tree: ast.AST) -> set[int]:
    """ids of every node appearing as the func of a Call."""
    return {
        id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)
    }


# ---------------------------------------------------------------------------
# DET001 — unseeded / ambient RNG


#: RNG constructors that are deterministic *when given a seed argument*.
_SEEDED_CONSTRUCTORS = {
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.PCG64",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
    "numpy.random.SeedSequence",
}

#: Names that may be *referenced* bare (annotations, isinstance checks).
_RNG_TYPE_REFERENCES = {
    "random.Random",
    "numpy.random.Generator",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
}


@dataclass
class UnseededRandomRule(Rule):
    """DET001: every random stream must flow from ``repro.utils.rng``.

    Module-level ``random.*`` calls draw from interpreter-global state
    seeded from OS entropy; ``numpy.random.*`` free functions share one
    hidden global ``RandomState``.  Either makes a worker's output depend
    on what ran before it, breaking ``workers=N ≡ workers=1``.
    """

    code: str = "DET001"
    name: str = "unseeded-rng"
    description: str = (
        "ambient RNG state (random.* / numpy.random.* free functions, "
        "unseeded constructors) outside the derivation module"
    )

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        imports = ctx.imports
        func_ids = _call_func_ids(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                origin = imports.resolve(node.func)
                if origin is None:
                    continue
                if origin in _SEEDED_CONSTRUCTORS:
                    if not node.args and not node.keywords:
                        yield self.finding(
                            ctx,
                            node,
                            f"{origin}() without a seed draws from OS "
                            "entropy; derive the stream via "
                            "repro.utils.rng.derive_rng instead",
                        )
                    continue
                if origin.startswith("random.") or origin.startswith(
                    "numpy.random."
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"call to {origin} uses interpreter-global RNG "
                        "state; take an explicit random.Random derived "
                        "via repro.utils.rng",
                    )
            elif isinstance(node, (ast.Attribute, ast.Name)):
                if id(node) in func_ids:
                    continue  # handled as a call above
                if isinstance(node, ast.Attribute) and not isinstance(
                    node.ctx, ast.Load
                ):
                    continue
                origin = imports.resolve(node)
                if origin is None or origin in _RNG_TYPE_REFERENCES:
                    continue
                if (
                    origin.startswith("random.")
                    or origin.startswith("numpy.random.")
                ) and origin.count(".") >= 1:
                    if origin in ("random.Random",):
                        continue
                    yield self.finding(
                        ctx,
                        node,
                        f"reference to {origin} escapes as a callback "
                        "bound to interpreter-global RNG state",
                    )


# ---------------------------------------------------------------------------
# DET002 — wall-clock reads


_WALL_CLOCK_APIS = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "time.clock_gettime_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@dataclass
class WallClockRule(Rule):
    """DET002: no wall-clock reads outside the budget and wall-sidecar modules.

    Search decisions keyed on elapsed time stop at different points on
    different machines (and different runs of the same machine), so any
    clock read inside the optimizer invalidates both differential
    invariants.  The wall-clock *budget* and the profiler's wall sidecar
    are the sanctioned, allowlisted consumers.

    Options (``RULE_OPTIONS["DET002"]`` in :mod:`repro.analysis.config`):

    * ``allow`` — the sanctioned consumer modules (engine-level exempt);
    * ``verified_clean`` — modules whose published *contract* is that
      they never read the clock (the ``repro.obs`` trace layer stamps
      events with the logical budget clock precisely so traces are pure
      functions of the seed).  A wall-clock read there is worse than a
      plain violation — it silently voids a documented guarantee — so
      the finding message escalates accordingly.
    """

    code: str = "DET002"
    name: str = "wall-clock"
    description: str = (
        "wall-clock reads (time.*, datetime.now/today) outside the "
        "allowlisted budget and wall-sidecar modules"
    )

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        verified_clean = list(
            ctx.config.options_for(self.code).get("verified_clean", [])
        )
        in_verified = path_matches(ctx.rel_path, verified_clean)
        imports = ctx.imports
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(node, ast.Attribute) and not isinstance(
                node.ctx, ast.Load
            ):
                continue
            origin = imports.resolve(node)
            if origin in _WALL_CLOCK_APIS:
                if in_verified:
                    message = (
                        f"wall-clock read {origin} inside verified-clean "
                        "module: this module's contract (the trace is a "
                        "pure function of the seed) forbids clock reads "
                        "entirely; remove the read or drop the module "
                        "from DET002's verified_clean in "
                        "repro.analysis.config"
                    )
                else:
                    message = (
                        f"wall-clock read {origin} makes behaviour depend "
                        "on elapsed real time; inject a clock or move the "
                        "read into an allowlisted module"
                    )
                yield self.finding(ctx, node, message)


# ---------------------------------------------------------------------------
# DET003 — hash-order iteration feeding ordered constructs


#: Ordered consumers (``sorted`` is deliberately absent: wrapping in
#: sorted() is the *fix*).
_ORDERED_CONSUMERS = {"list", "tuple", "enumerate", "min", "max"}


def _own_scope_walk(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function/class scopes."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_unordered_expr(
    node: ast.AST, tainted: frozenset[str] = frozenset()
) -> bool:
    """Syntactically-certain unordered iterables.

    Sets, set comprehensions, ``set()``/``frozenset()`` calls, set
    algebra, ``.keys()`` views — plus, given a taint set, names proven
    to be bound to unordered values and hash-ordered views
    (``.items()``/``.values()``/``.keys()``) over such names.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in tainted
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "keys",
            "values",
            "items",
        ):
            # Dict views are insertion-ordered, but insertion order is
            # itself hash order whenever the dict was built from an
            # unordered source — which the taint set proves.
            if func.attr == "keys":
                return True
            return (
                isinstance(func.value, ast.Name) and func.value.id in tainted
            )
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered_expr(node.left, tainted) or _is_unordered_expr(
            node.right, tainted
        )
    return False


def _assignment_values(scope: ast.AST) -> dict[str, list[ast.AST] | None]:
    """Every single-Name assignment in a scope; ``None`` marks 'unknown'.

    A name is only taintable when *every* binding we can see is a value
    expression — loop targets, ``with ... as``, aug-assigns, tuple
    unpacking, and ``global``/``nonlocal`` all poison it to unknown, so
    the taint analysis stays conservative toward *not* flagging.
    """
    values: dict[str, list[ast.AST] | None] = {}

    def poison(name: str) -> None:
        values[name] = None

    def record(name: str, value: ast.AST) -> None:
        existing = values.get(name, [])
        if existing is not None:
            existing.append(value)
            values[name] = existing

    # A parameter default is a visible binding: ``def f(tags=frozenset(
    # {...}))`` declares an unordered expected type, so iterating ``tags``
    # orderly is flagged even though the caller could pass anything.
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = scope.args
        positional = list(args.posonlyargs) + list(args.args)
        defaulted = positional[len(positional) - len(args.defaults) :]
        for arg, default in zip(defaulted, args.defaults):
            record(arg.arg, default)
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                record(arg.arg, kw_default)

    for node in _own_scope_walk(scope):
        if isinstance(node, ast.Assign):
            if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                record(node.targets[0].id, node.value)
            else:
                for target in node.targets:
                    for inner in ast.walk(target):
                        if isinstance(inner, ast.Name):
                            poison(inner.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                if node.value is not None:
                    record(node.target.id, node.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Name):
                poison(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for inner in ast.walk(node.target):
                if isinstance(inner, ast.Name):
                    poison(inner.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                poison(name)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for inner in ast.walk(item.optional_vars):
                        if isinstance(inner, ast.Name):
                            poison(inner.id)
    return values


def _unordered_tainted_names(scope: ast.AST) -> frozenset[str]:
    """Names in a scope whose every visible binding is an unordered value.

    Runs to a (tiny) fixpoint so second-order taint is caught: a dict
    comprehension over a tainted set taints the dict, whose ``.items()``
    view is then hash-ordered too.  Rebinding a name to anything ordered
    (``xs = sorted(xs)``) removes it from the set entirely.
    """
    values = _assignment_values(scope)
    tainted: frozenset[str] = frozenset()
    while True:
        new = set(tainted)
        for name, bindings in sorted(values.items()):
            if bindings is None or not bindings or name in new:
                continue
            if all(_taints(value, frozenset(new)) for value in bindings):
                new.add(name)
        if frozenset(new) == tainted:
            return tainted
        tainted = frozenset(new)


def _taints(value: ast.AST, tainted: frozenset[str]) -> bool:
    """Does binding a name to ``value`` make that name unordered?"""
    if _is_unordered_expr(value, tainted):
        return True
    if isinstance(value, ast.DictComp):
        return any(
            _is_unordered_expr(gen.iter, tainted) for gen in value.generators
        )
    if isinstance(value, ast.Call):
        func = value.func
        if (
            isinstance(func, ast.Name)
            and func.id == "dict"
            and value.args
            and _is_unordered_expr(value.args[0], tainted)
        ):
            return True
    return False


def _order_sensitive_loop(loop: ast.For | ast.AsyncFor) -> ast.AST | None:
    """First statement in the body that makes iteration order observable."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.Break, ast.Return, ast.Yield, ast.YieldFrom)):
            return node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("append", "extend", "insert")
        ):
            return node
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(isinstance(t, ast.Subscript) for t in targets):
                return node
    return None


@dataclass
class UnorderedIterationRule(Rule):
    """DET003: bare set/``dict.keys()`` iteration must not feed order.

    Set iteration order follows string hashes, which PYTHONHASHSEED
    randomises per process: the same query in two pool workers can visit
    moves in different orders, pick different tie-breaks, and return
    different plans at equal cost.  Wrapping the iterable in
    ``sorted(...)`` restores a schedule-independent order.

    The rule is taint-aware per scope: a name whose every visible binding
    is an unordered value (``s = set(xs)``, ``d = {k: v for k in s}``) is
    unordered too, so laundering a set through a local variable — or a
    dict built from one, whose ``.items()`` view replays hash order —
    no longer hides the dependence.  Rebinding through ``sorted(...)``
    removes the taint, so the idiomatic fix stays clean.
    """

    code: str = "DET003"
    name: str = "unordered-iteration"
    description: str = (
        "iteration over bare set/dict.keys()/tainted unordered names "
        "feeding ordered constructs (list building, min/max, early exit) "
        "without sorted(...)"
    )

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        scopes: list[ast.AST] = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            )
        ]
        for scope in scopes:
            tainted = _unordered_tainted_names(scope)
            yield from self._check_scope(ctx, scope, tainted)

    def _check_scope(
        self, ctx: "ModuleContext", scope: ast.AST, tainted: frozenset[str]
    ) -> Iterator[Finding]:
        for node in _own_scope_walk(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)) and _is_unordered_expr(
                node.iter, tainted
            ):
                witness = _order_sensitive_loop(node)
                if witness is not None:
                    yield self.finding(
                        ctx,
                        node.iter,
                        "loop over an unordered iterable has an "
                        "order-sensitive body "
                        f"(line {getattr(witness, 'lineno', node.lineno)}); "
                        "wrap the iterable in sorted(...)",
                    )
            elif isinstance(node, ast.ListComp):
                for generator in node.generators:
                    if _is_unordered_expr(generator.iter, tainted):
                        yield self.finding(
                            ctx,
                            generator.iter,
                            "list comprehension over an unordered iterable "
                            "produces a hash-order list; wrap the source "
                            "in sorted(...)",
                        )
            elif isinstance(node, ast.Call):
                consumer = None
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _ORDERED_CONSUMERS
                ):
                    consumer = node.func.id
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                ):
                    consumer = "str.join"
                if consumer is None or not node.args:
                    continue
                head = node.args[0]
                unordered = _is_unordered_expr(head, tainted) or (
                    isinstance(head, ast.GeneratorExp)
                    and any(
                        _is_unordered_expr(g.iter, tainted)
                        for g in head.generators
                    )
                )
                if unordered:
                    yield self.finding(
                        ctx,
                        node,
                        f"{consumer}(...) consumes an unordered iterable "
                        "in hash order; wrap the source in sorted(...)",
                    )


# ---------------------------------------------------------------------------
# DET004 — pool dispatch must be module-level and closure-free


@dataclass
class PoolDispatchRule(Rule):
    """DET004: ``submit``/``map`` targets must be module-level functions.

    A lambda or nested function fails to pickle at dispatch time (or,
    worse, pickles by reference on platforms that fork and silently
    captures parent state); a function that writes module globals makes
    worker output depend on what previously ran in that process.  Both
    break crash-recovery re-execution in the parent, which must produce
    the exact bytes the pool worker would have.
    """

    code: str = "DET004"
    name: str = "pool-dispatch"
    description: str = (
        "arguments to .submit/.map must be module-level, picklable "
        "functions that do not write module globals"
    )

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        module_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        nested_defs: set[str] = set()
        for top in ast.iter_child_nodes(ctx.tree):
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                module_defs[top.name] = top
                for inner in ast.walk(top):
                    if inner is not top and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested_defs.add(inner.name)
        imported = set(ctx.imports.names)
        # Module-level classes pickle by reference, so dispatching one as
        # the callable (its constructor) is sound.
        imported.update(
            top.name
            for top in ast.iter_child_nodes(ctx.tree)
            if isinstance(top, ast.ClassDef)
        )

        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and node.args
            ):
                continue
            target = node.args[0]
            yield from self._check_target(
                ctx, node, target, module_defs, nested_defs, imported
            )

    def _check_target(
        self,
        ctx: "ModuleContext",
        call: ast.Call,
        target: ast.AST,
        module_defs: dict[str, ast.FunctionDef | ast.AsyncFunctionDef],
        nested_defs: set[str],
        imported: set[str],
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Lambda):
            yield self.finding(
                ctx,
                target,
                "lambda dispatched to the pool is not picklable; hoist it "
                "to a module-level function",
            )
            return
        if isinstance(target, ast.Call):
            origin = ctx.imports.resolve(target.func)
            if origin == "functools.partial" and target.args:
                yield from self._check_target(
                    ctx,
                    call,
                    target.args[0],
                    module_defs,
                    nested_defs,
                    imported,
                )
                return
            yield self.finding(
                ctx,
                target,
                "dynamically constructed callable dispatched to the pool "
                "cannot be verified picklable; dispatch a module-level "
                "function",
            )
            return
        if isinstance(target, ast.Attribute):
            if ctx.imports.resolve(target) is not None:
                return  # an imported module-level function
            yield self.finding(
                ctx,
                target,
                "bound method/attribute dispatched to the pool is not "
                "verifiably module-level; dispatch a module-level function",
            )
            return
        if isinstance(target, ast.Name):
            definition = module_defs.get(target.id)
            if definition is not None:
                writer = self._global_write(definition)
                if writer is not None:
                    yield self.finding(
                        ctx,
                        target,
                        f"pool-dispatched function {target.id!r} writes "
                        f"module global(s) {writer}; worker output would "
                        "depend on prior jobs in the same process",
                    )
                return
            if target.id in imported:
                return
            if target.id in nested_defs:
                yield self.finding(
                    ctx,
                    target,
                    f"{target.id!r} is a nested function; pool targets "
                    "must be module-level to pickle by reference",
                )
                return
            yield self.finding(
                ctx,
                target,
                f"{target.id!r} is not a module-level function or import "
                "in this module; pool targets must pickle by reference",
            )

    @staticmethod
    def _global_write(
        definition: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> str | None:
        declared: set[str] = set()
        for node in ast.walk(definition):
            if isinstance(node, ast.Global):
                declared.update(node.names)
        if not declared:
            return None
        written: set[str] = set()
        for node in ast.walk(definition):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for item in targets:
                    if isinstance(item, ast.Name) and item.id in declared:
                        written.add(item.id)
        if written:
            return ", ".join(sorted(written))
        return None


# ---------------------------------------------------------------------------
# EXC001 — broad except only at annotated robustness boundaries


_BOUNDARY_PATTERN = re.compile(r"#\s*boundary:\s*(\S.*)$")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    if isinstance(kind, ast.Name) and kind.id in ("Exception", "BaseException"):
        return True
    if isinstance(kind, ast.Tuple):
        return any(
            isinstance(item, ast.Name)
            and item.id in ("Exception", "BaseException")
            for item in kind.elts
        )
    return False


@dataclass
class BroadExceptRule(Rule):
    """EXC001: broad ``except`` only inside annotated boundaries.

    Outside the resilient guards, ``except Exception`` converts bugs
    (including determinism bugs: a divergent worker crashing instead of
    agreeing) into silently different results.  A broad handler is legal
    only where a ``# boundary: <why>`` annotation marks a deliberate
    robustness boundary — or anywhere in the allowlisted
    ``repro.robustness`` package, whose whole purpose is to be one.
    """

    code: str = "EXC001"
    name: str = "broad-except"
    description: str = (
        "except Exception / bare except outside an annotated "
        "'# boundary: <why>' robustness boundary"
    )

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or not _is_broad(node):
                continue
            if self._annotated(ctx, node.lineno):
                continue
            label = "bare except" if node.type is None else "except Exception"
            yield self.finding(
                ctx,
                node,
                f"{label} swallows unexpected failures; narrow it to the "
                "exceptions this site can actually see, or annotate a "
                "deliberate robustness boundary with '# boundary: <why>'",
            )

    @staticmethod
    def _annotated(ctx: "ModuleContext", lineno: int) -> bool:
        """Boundary pragma on the except line or its leading comment block."""
        if 1 <= lineno <= len(ctx.lines) and _BOUNDARY_PATTERN.search(
            ctx.lines[lineno - 1]
        ):
            return True
        cursor = lineno - 1
        while 1 <= cursor <= len(ctx.lines):
            stripped = ctx.lines[cursor - 1].strip()
            if not stripped.startswith("#"):
                return False
            if _BOUNDARY_PATTERN.search(stripped):
                return True
            cursor -= 1
        return False


# ---------------------------------------------------------------------------
# Registry


RULES: tuple[Rule, ...] = (
    UnseededRandomRule(),
    WallClockRule(),
    UnorderedIterationRule(),
    PoolDispatchRule(),
    BroadExceptRule(),
)


def rule_registry() -> dict[str, Rule]:
    return {rule.code: rule for rule in RULES}
