"""The fallback chain behind ``optimize(..., resilient=True)``.

The paper's framing is anytime combinatorial search under a fixed time
budget: the optimizer must **always return the best valid plan found so
far**, degraded if necessary.  This module delivers that guarantee through
a staged chain, every step of which is recorded in a structured
:class:`FailureLog` attached to the returned result:

1. **Pre-flight** — validate the catalog; corrupted statistics are
   repaired with conservative clamps (:func:`sanitize_catalog`) rather
   than crashing the search.
2. **Attempt** — run the requested method on the full budget.  A crash
   mid-search is caught; whatever best plan its evaluator had already
   recorded still competes.
3. **Retries** — stochastic methods are retried with rotated derived
   seeds (deterministic methods once, in case the failure was transient);
   each retry gets a fresh :data:`RETRY_BUDGET_FRACTION` carve of the
   original budget, so a drained budget cannot starve recovery.
4. **Method degradation** — the pure augmentation heuristic, then KBZ:
   cheap, deterministic, and immune to move-generator bugs.
5. **Last resort** — a deterministic spanning order (smallest-cardinality
   greedy growth, components contiguous), which is valid by construction.

Every candidate — including the last resort — must pass the plan
verification gate (:func:`~repro.robustness.verify.verify_plan`) before it
is returned.  Only when every stage fails does :class:`NoValidPlanError`
escape, carrying the full failure log.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.catalog.join_graph import JoinGraph
from repro.core.budget import Budget
from repro.core.combinations import MethodParams, Strategy, make_strategy
from repro.core.optimizer import (
    OptimizationResult,
    _single_relation_result,
    postpone_cross_products,
)
from repro.core.state import Evaluator
from repro.cost.base import CostModel
from repro.obs import events as obs_events
from repro.obs.tracer import Tracer
from repro.plans.join_order import JoinOrder
from repro.plans.validity import deterministic_fallback_order
from repro.robustness.verify import (
    catalog_violations,
    sanitize_catalog,
    verify_plan,
)
from repro.utils.rng import derive_rng, derive_seed

#: Share of the original budget granted to each recovery stage (retries and
#: method fallbacks).  Recovery overhead is therefore bounded by
#: ``(n_stages * RETRY_BUDGET_FRACTION)`` of the requested work.
RETRY_BUDGET_FRACTION = 0.25

#: Degradation chain tried after the requested method's retries: the pure
#: augmentation heuristic first (the paper's strongest cheap heuristic),
#: then KBZ.  Both are deterministic and finish in a few states.
FALLBACK_METHODS = ("AUG", "KBZ")

#: Method name reported when the deterministic spanning order is returned.
SPANNING_METHOD = "SPANNING"


@dataclass(frozen=True)
class FailureRecord:
    """One failure the fallback chain observed, and what it did about it."""

    stage: str  # "preflight", "attempt", "retry-1", "fallback-AUG", ...
    method: str
    seed: int | None
    kind: str  # "corrupt-catalog" | "exception" | "no-plan" | "verification"
    detail: str
    action: str

    def __str__(self) -> str:
        seed = "" if self.seed is None else f" (seed {self.seed})"
        return (
            f"[{self.stage}] {self.method}{seed}: {self.kind} — "
            f"{self.detail} -> {self.action}"
        )


@dataclass
class FailureLog:
    """An ordered record of every failure seen during one optimization.

    With a recording ``tracer`` attached, every record is mirrored into
    the trace as a ``fault`` event at the moment it is logged — the
    trace and the log tell the same story in the same order.  The field
    is excluded from comparison so logs compare on their records alone.
    """

    records: list[FailureRecord] = field(default_factory=list)
    tracer: Tracer | None = field(default=None, repr=False, compare=False)

    def add(self, **kwargs) -> None:
        record = FailureRecord(**kwargs)
        self.records.append(record)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                obs_events.FAULT,
                stage=record.stage,
                method=record.method,
                kind=record.kind,
                action=record.action,
            )
            self.tracer.metrics.inc("faults")

    def extend(self, records) -> None:
        for record in records:
            self.records.append(record)
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.emit(
                    obs_events.FAULT,
                    stage=record.stage,
                    method=record.method,
                    kind=record.kind,
                    action=record.action,
                )
                self.tracer.metrics.inc("faults")

    def as_tuple(self) -> tuple[FailureRecord, ...]:
        return tuple(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        return bool(self.records)

    def __iter__(self):
        return iter(self.records)

    def summary(self) -> str:
        """Multi-line human-readable summary (printed to stderr by the CLI)."""
        if not self.records:
            return "no failures recorded"
        lines = [f"{len(self.records)} failure(s) during optimization:"]
        lines.extend(f"  {record}" for record in self.records)
        return "\n".join(lines)


class NoValidPlanError(RuntimeError):
    """Every stage of the fallback chain failed to produce a valid plan."""

    def __init__(self, message: str, failures: FailureLog) -> None:
        super().__init__(f"{message}\n{failures.summary()}")
        self.failures = failures


def _method_name(method: str | Strategy) -> str:
    return method.name if isinstance(method, Strategy) else str(method).upper()


def _run_guarded(
    graph: JoinGraph,
    method: str | Strategy,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    target_cost: float | None,
    tracer: Tracer | None = None,
) -> tuple[Evaluator, BaseException | None]:
    """Run one strategy, catching *everything*; the evaluator keeps the best.

    ``BudgetExhausted``/``TargetReached`` are the normal anytime exits and
    are not reported as errors; any other exception is returned for the
    chain to log — together with whatever best plan was found before it.
    """
    from repro.core.budget import BudgetExhausted
    from repro.core.state import TargetReached

    strategy = make_strategy(method)
    # Always the full-cost reference Evaluator, never the incremental
    # DeltaEvaluator: the resilient path is the recovery mechanism for
    # misbehaving evaluation, so it must not share the optimization the
    # verification gate is meant to check independently.
    evaluator = Evaluator(graph, model, budget, target_cost=target_cost)
    if tracer is not None:
        evaluator.tracer = tracer
    rng_key = method if isinstance(method, str) else strategy.name
    rng = derive_rng(seed, "optimize", rng_key, graph.n_relations)
    error: BaseException | None = None
    try:
        strategy.run(evaluator, rng, params)
    except (BudgetExhausted, TargetReached):
        pass
    # boundary: the chain's core guarantee — a crashing strategy still
    # surrenders its best-so-far plan, and the error is logged upstream.
    except Exception as exc:
        error = exc
    return evaluator, error


def _stages(
    method: str | Strategy,
    method_name: str,
    seed: int,
    budget: Budget,
    max_retries: int,
):
    """Yield ``(stage, method, seed, budget)`` for the whole chain."""
    yield "attempt", method, seed, budget
    stochastic = make_strategy(method).stochastic
    n_retries = max_retries if stochastic else min(1, max_retries)
    for i in range(1, n_retries + 1):
        retry_seed = (
            derive_seed(seed, "resilience", "retry", i) if stochastic else seed
        )
        yield f"retry-{i}", method, retry_seed, budget.carve(
            RETRY_BUDGET_FRACTION
        )
    for fallback in FALLBACK_METHODS:
        if method_name.startswith(fallback):
            continue
        yield f"fallback-{fallback}", fallback, derive_seed(
            seed, "resilience", "fallback", fallback
        ), budget.carve(RETRY_BUDGET_FRACTION)


def resilient_optimize(
    graph: JoinGraph,
    *,
    method: str | Strategy = "IAI",
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    params: MethodParams | None = None,
    target_cost: float | None = None,
    max_retries: int = 2,
    tracer: Tracer | None = None,
) -> OptimizationResult:
    """Optimize with the full fallback chain; see the module docstring.

    Raises :class:`NoValidPlanError` only when every stage — including the
    deterministic spanning-order last resort — fails verification.

    A recording ``tracer`` sees every :class:`FailureRecord` mirrored as
    a ``fault`` event the moment it is logged, and one ``degraded``
    event when the returned result is degraded.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")
    if params is None:
        params = MethodParams()
    failures = FailureLog(tracer=tracer)
    method_name = _method_name(method)

    violations = catalog_violations(graph)
    if violations:
        shown = "; ".join(violations[:4])
        if len(violations) > 4:
            shown += f" (+{len(violations) - 4} more)"
        failures.add(
            stage="preflight",
            method=method_name,
            seed=None,
            kind="corrupt-catalog",
            detail=shown,
            action="sanitized catalog statistics and continued",
        )
        graph = sanitize_catalog(graph)

    if graph.n_relations == 1:
        result = replace(
            _single_relation_result(graph, method),
            degraded=bool(failures),
            failures=failures.as_tuple(),
        )
    elif not graph.is_connected:
        result = _resilient_disconnected(
            graph, method, method_name, model, budget, seed, params,
            max_retries, failures,
        )
    else:
        result = _resilient_connected(
            graph, method, method_name, model, budget, seed, params,
            target_cost, max_retries, failures,
        )
    if tracer is not None and tracer.enabled and result.degraded:
        tracer.emit(
            obs_events.DEGRADED,
            method=result.method,
            failures=len(result.failures),
        )
        tracer.metrics.inc("degraded_runs")
    return result


def _resilient_connected(
    graph: JoinGraph,
    method: str | Strategy,
    method_name: str,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    target_cost: float | None,
    max_retries: int,
    failures: FailureLog,
) -> OptimizationResult:
    total_spent = 0.0
    total_evaluations = 0
    for stage, stage_method, stage_seed, stage_budget in _stages(
        method, method_name, seed, budget, max_retries
    ):
        evaluator, error = _run_guarded(
            graph, stage_method, model, stage_budget, stage_seed, params,
            target_cost, tracer=failures.tracer,
        )
        total_spent += stage_budget.spent
        total_evaluations += evaluator.n_evaluations
        stage_name = _method_name(stage_method)
        if error is not None:
            failures.add(
                stage=stage,
                method=stage_name,
                seed=stage_seed,
                kind="exception",
                detail=f"{type(error).__name__}: {error}",
                action="kept the best plan found so far and continued",
            )
        best = evaluator.best
        if best is None:
            if error is None:
                failures.add(
                    stage=stage,
                    method=stage_name,
                    seed=stage_seed,
                    kind="no-plan",
                    detail="budget exhausted before any finite-cost plan "
                    "was recorded",
                    action="continued down the fallback chain",
                )
            continue
        report = verify_plan(best.order, best.cost, graph, model)
        if report.ok:
            return OptimizationResult(
                method=stage_name,
                graph=graph,
                order=best.order,
                cost=best.cost,
                units_spent=total_spent,
                n_evaluations=total_evaluations,
                trajectory=tuple(evaluator.trajectory),
                degraded=bool(failures),
                failures=failures.as_tuple(),
            )
        failures.add(
            stage=stage,
            method=stage_name,
            seed=stage_seed,
            kind="verification",
            detail="; ".join(report.violations),
            action="discarded the plan and continued",
        )
    order = deterministic_fallback_order(graph)
    cost = _price_and_verify(
        order, graph, model, failures, "last-resort", SPANNING_METHOD, None,
        "the spanning order",
    )
    if cost is None:
        raise NoValidPlanError(
            "every optimization attempt, fallback method, and the "
            "deterministic spanning order failed to produce a verifiable "
            "plan",
            failures,
        )
    return OptimizationResult(
        method=SPANNING_METHOD,
        graph=graph,
        order=order,
        cost=cost,
        units_spent=total_spent,
        n_evaluations=total_evaluations,
        trajectory=((total_spent, cost),),
        degraded=True,
        failures=failures.as_tuple(),
    )


def _resilient_disconnected(
    graph: JoinGraph,
    method: str | Strategy,
    method_name: str,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    max_retries: int,
    failures: FailureLog,
) -> OptimizationResult:
    """Postpone cross products, each component through its own chain.

    A component whose whole chain fails degrades to its deterministic
    spanning order rather than failing the query.
    """
    pieces: list[OptimizationResult] = []

    def solve(
        component: tuple[int, ...], subgraph: JoinGraph, share: Budget
    ) -> JoinOrder:
        try:
            piece = resilient_optimize(
                subgraph, method=method, model=model, budget=share,
                seed=seed, params=params, max_retries=max_retries,
            )
        except NoValidPlanError as exc:
            failures.extend(exc.failures)
            failures.add(
                stage="component",
                method=method_name,
                seed=seed,
                kind="no-plan",
                detail=f"component {component} produced no verifiable plan",
                action="used its deterministic spanning order",
            )
            return deterministic_fallback_order(subgraph)
        failures.extend(piece.failures)
        pieces.append(piece)
        # Retries and fallbacks ran on carves of their own; charge their
        # work here too, so later components share only what is left.
        share.spent = piece.units_spent
        return piece.order

    order = postpone_cross_products(graph, budget, solve)
    methods = {piece.method for piece in pieces}
    reported_method = methods.pop() if len(methods) == 1 else method_name
    cost = _price_and_verify(
        order, graph, model, failures, "concatenation", reported_method,
        seed, "the concatenated order",
    )
    if cost is None:
        raise NoValidPlanError(
            "the concatenated per-component plan failed verification",
            failures,
        )
    units = sum(piece.units_spent for piece in pieces)
    return OptimizationResult(
        method=reported_method,
        graph=graph,
        order=order,
        cost=cost,
        units_spent=units,
        n_evaluations=sum(piece.n_evaluations for piece in pieces),
        trajectory=((units, cost),),
        degraded=bool(failures),
        failures=failures.as_tuple(),
    )


def _price_and_verify(
    order: JoinOrder,
    graph: JoinGraph,
    model: CostModel,
    failures: FailureLog,
    stage: str,
    method: str,
    seed: int | None,
    what: str,
) -> float | None:
    """The cost of a fallback ``order`` once it verifies, else ``None``.

    Two tries, because transient cost-model faults are counted per
    evaluation: the second call sees a different fault phase.  Each
    failed try is logged as ``{stage}-1`` or ``{stage}-2``.
    """
    for attempt in (1, 2):
        try:
            cost = model.plan_cost(order, graph)
        # boundary: fallback pricing must survive arbitrary model faults
        except Exception as exc:
            failures.add(
                stage=f"{stage}-{attempt}",
                method=method,
                seed=seed,
                kind="exception",
                detail=f"pricing {what} raised {type(exc).__name__}: {exc}",
                action=f"re-priced {what}" if attempt == 1 else "gave up",
            )
            continue
        report = verify_plan(order, cost, graph, model)
        if report.ok:
            return cost
        failures.add(
            stage=f"{stage}-{attempt}",
            method=method,
            seed=seed,
            kind="verification",
            detail="; ".join(report.violations),
            action=f"re-verified {what}" if attempt == 1 else "gave up",
        )
    return None
