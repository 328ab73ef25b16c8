"""The two guards behind ``optimize(..., resilient=True)``.

The paper's framing is anytime combinatorial search under a fixed time
budget: the optimizer must **always return the best valid plan found so
far**, degraded if necessary.  The resilient path runs the plain search
once — the same evaluator, the same random stream, the caller's budget —
and adds two guards, each recorded in a structured :class:`FailureLog`
attached to the returned result:

1. **Guarded attempt** — a strategy that raises mid-search is caught; the
   best plan its evaluator had already recorded still counts.
2. **Last resort** — when the attempt leaves no plan that passes the
   verification gate (:func:`~repro.robustness.verify.verify_plan`), a
   deterministic spanning order (smallest-cardinality greedy growth,
   components contiguous), valid by construction, is priced and gated.

On a run where nothing fails the result *is* the plain result.  Only when
neither the search nor the spanning order verifies does
:class:`NoValidPlanError` escape, carrying the failure log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.catalog.join_graph import JoinGraph
from repro.core.budget import Budget
from repro.core.combinations import MethodParams, Strategy
from repro.core.optimizer import (
    OptimizationResult,
    _method_label,
    _optimize_connected,
    _single_relation_result,
    postpone_cross_products,
)
from repro.core.state import Evaluation, Evaluator
from repro.cost.base import CostModel
from repro.obs import events as obs_events
from repro.obs.tracer import Tracer
from repro.plans.join_order import JoinOrder
from repro.plans.validity import deterministic_fallback_order
from repro.robustness.verify import verify_plan

#: Method name reported when the deterministic spanning order is returned.
SPANNING_METHOD = "SPANNING"


@dataclass(frozen=True)
class FailureRecord:
    """One failure the resilient path observed, and what it did about it."""

    stage: str  # "attempt", "component", "last-resort", "concatenation"
    method: str
    seed: int | None
    kind: str  # "exception" | "no-plan" | "verification"
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

    def as_tuple(self) -> tuple[FailureRecord, ...]:
        return tuple(self.records)

    def __len__(self) -> int:
        return len(self.records)

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
    """Neither the search nor the spanning order produced a valid plan."""

    def __init__(self, message: str, failures: FailureLog) -> None:
        super().__init__(f"{message}\n{failures.summary()}")
        self.failures = failures


def resilient_optimize(
    graph: JoinGraph,
    *,
    method: str | Strategy = "IAI",
    model: CostModel,
    budget: Budget,
    seed: int = 0,
    params: MethodParams | None = None,
    target_cost: float | None = None,
    tracer: Tracer | None = None,
) -> OptimizationResult:
    """Optimize with the two guards; see the module docstring.

    Raises :class:`NoValidPlanError` only when the spanning-order last
    resort fails verification too.

    A recording ``tracer`` sees the search's events, every
    :class:`FailureRecord` mirrored as a ``fault`` event the moment it
    is logged, and one ``degraded`` event when the returned result is
    degraded.
    """
    if params is None:
        params = MethodParams()
    failures = FailureLog(tracer=tracer)
    if graph.n_relations == 1:
        result = _single_relation_result(graph, method)
    elif graph.is_connected:
        result = _resilient_connected(
            graph, method, model, budget, seed, params, target_cost, failures
        )
    else:
        result = _resilient_disconnected(
            graph, method, model, budget, seed, params, failures
        )
    if tracer is not None and tracer.enabled and result.degraded:
        tracer.emit(
            obs_events.DEGRADED,
            method=result.method,
            failures=len(result.failures),
        )
        tracer.metrics.inc("degraded_runs")
    return result


def _attempt(
    graph: JoinGraph,
    method: str | Strategy,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    target_cost: float | None,
    failures: FailureLog,
) -> tuple[Evaluator, Evaluation | None]:
    """The plain search, run once and guarded; its evaluator and best plan.

    An exception the strategy raises is logged, and the best plan recorded
    before it still counts.  The best plan comes back only if it passes
    the verification gate; a missing or rejected one is logged and
    ``None``.
    """
    log = partial(
        failures.add, stage="attempt", method=_method_label(method), seed=seed
    )
    errors: list[Exception] = []
    evaluator = _optimize_connected(
        graph, method, model, budget, seed, params, target_cost,
        tracer=failures.tracer, on_error=errors.append,
    )
    best = evaluator.best
    for error in errors:
        log(
            kind="exception",
            detail=f"{type(error).__name__}: {error}",
            action="kept the best plan found so far"
            if best is not None
            else "fell back to the spanning order",
        )
    if best is None:
        if not errors:
            log(
                kind="no-plan",
                detail="budget exhausted before any finite-cost plan "
                "was recorded",
                action="fell back to the spanning order",
            )
        return evaluator, None
    report = verify_plan(best.order, best.cost, graph, model)
    if not report.ok:
        log(
            kind="verification",
            detail="; ".join(report.violations),
            action="discarded the plan",
        )
        return evaluator, None
    return evaluator, best


def _resilient_connected(
    graph: JoinGraph,
    method: str | Strategy,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    target_cost: float | None,
    failures: FailureLog,
) -> OptimizationResult:
    evaluator, best = _attempt(
        graph, method, model, budget, seed, params, target_cost, failures
    )
    if best is not None:
        label, order, cost = _method_label(method), best.order, best.cost
        trajectory = tuple(evaluator.trajectory)
    else:
        label, order = SPANNING_METHOD, deterministic_fallback_order(graph)
        cost = _price_and_verify(
            order, graph, model,
            partial(failures.add, stage="last-resort", method=label, seed=None),
            "the spanning order",
        )
        if cost is None:
            raise NoValidPlanError(
                "neither the search nor the deterministic spanning order "
                "produced a verifiable plan",
                failures,
            )
        trajectory = ((budget.spent, cost),)
    return OptimizationResult(
        method=label,
        graph=graph,
        order=order,
        cost=cost,
        units_spent=budget.spent,
        n_evaluations=evaluator.n_evaluations,
        trajectory=trajectory,
        degraded=bool(failures),
        failures=failures.as_tuple(),
    )


def _resilient_disconnected(
    graph: JoinGraph,
    method: str | Strategy,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    failures: FailureLog,
) -> OptimizationResult:
    """Postpone cross products, each component through a guarded attempt.

    A component whose attempt leaves no verified plan uses its own
    deterministic spanning order rather than failing the query; the
    concatenated order is priced and verified once.
    """
    label = _method_label(method)
    tracer = failures.tracer
    sources: set[str] = set()
    n_evaluations = 0

    def solve(
        component: tuple[int, ...], subgraph: JoinGraph, share: Budget
    ) -> JoinOrder:
        nonlocal n_evaluations
        if tracer is not None:
            # The component searches on its share; postpone restores it.
            tracer.bind_clock(share)
        evaluator, best = _attempt(
            subgraph, method, model, share, seed, params, None, failures
        )
        n_evaluations += evaluator.n_evaluations
        if best is not None:
            sources.add(label)
            return best.order
        failures.add(
            stage="component",
            method=label,
            seed=seed,
            kind="no-plan",
            detail=f"component {component} produced no verifiable plan",
            action="used its deterministic spanning order",
        )
        sources.add(SPANNING_METHOD)
        return deterministic_fallback_order(subgraph)

    order = postpone_cross_products(graph, budget, solve, tracer)
    reported_method = sources.pop() if len(sources) == 1 else label
    cost = _price_and_verify(
        order, graph, model,
        partial(
            failures.add, stage="concatenation", method=reported_method,
            seed=seed,
        ),
        "the concatenated order",
    )
    if cost is None:
        raise NoValidPlanError(
            "the concatenated per-component plan failed verification",
            failures,
        )
    return OptimizationResult(
        method=reported_method,
        graph=graph,
        order=order,
        cost=cost,
        units_spent=budget.spent,
        n_evaluations=n_evaluations,
        trajectory=((budget.spent, cost),),
        degraded=bool(failures),
        failures=failures.as_tuple(),
    )


def _price_and_verify(
    order: JoinOrder,
    graph: JoinGraph,
    model: CostModel,
    log: Callable[..., None],
    what: str,
) -> float | None:
    """The cost of a fallback ``order`` once it verifies, else ``None``.

    One try: the shipped cost models are pure, so a re-price repeats.
    A failure goes to ``log``.
    """
    try:
        cost = model.plan_cost(order, graph)
    # boundary: fallback pricing must survive arbitrary model faults
    except Exception as exc:
        log(
            kind="exception",
            detail=f"pricing {what} raised {type(exc).__name__}: {exc}",
            action="gave up",
        )
        return None
    report = verify_plan(order, cost, graph, model)
    if not report.ok:
        log(
            kind="verification",
            detail="; ".join(report.violations),
            action="gave up",
        )
        return None
    return cost
