"""The public entry point: ``optimize(query, method=...)``.

Handles the pre-search heuristics the paper applies before the
combinatorial search proper:

* selections/projections are already folded into the catalog statistics
  (``Relation.cardinality`` is the post-selection ``N_k``);
* cross products are postponed (:func:`postpone_cross_products`): a
  disconnected join graph is split into components, each optimized
  separately with a budget share proportional to its ``N^2``, and the
  component orders are concatenated smallest estimated result first.

``_optimize`` is the one driver from a graph to an
:class:`OptimizationResult`, plain or resilient: each component of a
disconnected graph is a nested run of it, on its share of the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.catalog.join_graph import JoinGraph, Query
from repro.core.budget import Budget, BudgetExhausted, DEFAULT_UNITS_PER_N2
from repro.core.combinations import (
    MethodParams,
    Strategy,
    available_method_names,
    make_strategy,
)
from repro.core.state import TargetReached, make_evaluator
from repro.cost.base import CostModel
from repro.cost.bounds import lower_bound
from repro.cost.cardinality import CostOverflowError, prefix_cardinalities
from repro.cost.memory import MainMemoryCostModel
from repro.obs import events as obs_events
from repro.obs.tracer import Tracer, as_tracer
from repro.obs.writer import write_trace
from repro.plans.join_order import JoinOrder
from repro.plans.join_tree import JoinTree, build_join_tree
from repro.plans.validity import deterministic_fallback_order
from repro.utils.rng import derive_rng

if TYPE_CHECKING:
    from repro.robustness.resilience import FailureLog

#: Method name reported when the deterministic spanning order is returned.
SPANNING_METHOD = "SPANNING"


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimizer invocation.

    ``degraded`` is True when the resilient path had to recover from at
    least one failure to produce this result; ``failures`` holds
    the corresponding :class:`~repro.robustness.resilience.FailureRecord`
    entries, in the order they occurred (empty for clean runs).
    """

    method: str
    graph: JoinGraph
    order: JoinOrder
    cost: float
    units_spent: float
    n_evaluations: int
    trajectory: tuple[tuple[float, float], ...]
    degraded: bool = False
    failures: tuple = ()

    def best_cost_within(self, units: float) -> float | None:
        """Best cost known once ``units`` had been spent (trajectory read)."""
        best = None
        for spent, cost in self.trajectory:
            if spent > units:
                break
            best = cost
        return best

    def join_tree(self) -> JoinTree:
        """The outer-linear join tree of the chosen order."""
        return build_join_tree(self.order, self.graph)


def available_methods() -> list[str]:
    """Method names accepted by :func:`optimize`."""
    return available_method_names()


def _method_label(method: str | Strategy) -> str:
    """The method name reported on results (``"IAI"``, ``"SAJ"``, ...)."""
    return method.name if isinstance(method, Strategy) else method.upper()


def _single_relation_result(
    graph: JoinGraph, method: str | Strategy
) -> OptimizationResult:
    """The only plan of a one-relation query: no join, nothing to price.

    The method runs no search here, but its name is still validated.
    """
    make_strategy(method)
    return OptimizationResult(
        method=_method_label(method),
        graph=graph,
        order=JoinOrder([0]),
        cost=0.0,
        units_spent=0.0,
        n_evaluations=0,
        trajectory=(),
    )


def optimize(
    query: Query | JoinGraph,
    method: str | Strategy = "IAI",
    model: CostModel | None = None,
    time_factor: float = 9.0,
    units_per_n2: float = DEFAULT_UNITS_PER_N2,
    seed: int = 0,
    budget: Budget | None = None,
    params: MethodParams | None = None,
    stop_at_bound: bool = False,
    bound_tolerance: float = 1.05,
    resilient: bool = False,
    workers: int | None = None,
    restarts: int | None = None,
    trace: Tracer | str | None = None,
) -> OptimizationResult:
    """Optimize a join query with one of the paper's methods.

    Parameters
    ----------
    query:
        A :class:`~repro.catalog.join_graph.Query` or a bare join graph.
    method:
        One of :func:`available_methods` (``"IAI"`` is the paper's overall
        winner and the default).
    model:
        Cost model; defaults to the main-memory model.
    time_factor / units_per_n2:
        The paper's time limit ``time_factor * N^2``, converted to work
        units (see :mod:`repro.core.budget`).  Ignored when an explicit
        ``budget`` is given.
    seed:
        Seed for the method's random choices (start states, moves).
    stop_at_bound / bound_tolerance:
        Enable the paper's early-stopping rule: stop as soon as a plan
        costs at most ``bound_tolerance`` times the lower bound on the
        optimum (see :func:`repro.cost.bounds.lower_bound`).
    resilient:
        Decides only what happens on a failure; the search, its
        evaluator, random stream and budget are the plain run's.  Where
        the plain run raises, ``resilient=True`` records the failure in
        a :class:`~repro.robustness.resilience.FailureLog`: a strategy
        that raises still hands back the best plan its evaluator
        recorded, and when no plan passes the verification gate the
        deterministic spanning order (method ``SPANNING``) is the last
        resort, per component on a disconnected graph.  A run where
        nothing fails returns exactly the plain result and records
        exactly the plain trace.  The result's ``degraded``/``failures``
        fields record what happened, and
        :class:`~repro.robustness.resilience.NoValidPlanError` is raised
        when not even the spanning order verifies.
    workers / restarts:
        Setting either routes the call through the multi-start
        orchestrator (:func:`repro.parallel.multi_start_optimize`):
        ``restarts`` independent restarts (default
        :data:`~repro.parallel.orchestrator.DEFAULT_RESTARTS`), each on
        an equal budget share with a seed derived as
        ``derive_seed(seed, "worker", k)``, fanned across ``workers``
        processes and merged deterministically — the result is
        bit-identical for every worker count, crashes included.  Both
        ``None`` (the default) keeps the legacy single-trajectory path
        bit-unchanged.  Incompatible with ``resilient=True`` (the
        orchestrator has its own crash recovery) and with a
        :class:`~repro.core.budget.WallClockBudget` (``ValueError``).
    trace:
        Observability sink (see :mod:`repro.obs`).  ``None`` (default)
        keeps the no-op backend — the run pays one attribute check per
        hook.  A :class:`~repro.obs.tracer.Tracer` records events and
        metrics in memory; a string/path records and writes the trace as
        JSONL to that file when the run completes.  Tracing is
        determinism-safe: it never charges the budget, draws from an
        RNG, or alters control flow, so a traced run returns a
        bit-identical result to an untraced one.

    Every returned plan — resilient or not — passes the verification gate
    (:func:`repro.robustness.verify.verify_plan`): the order is a valid
    permutation, cross products appear only between components, and the
    cost is finite, non-negative, and agrees with recomputation.
    """
    return _optimize(
        query, method, model, time_factor, units_per_n2, seed, budget,
        params, stop_at_bound, bound_tolerance, resilient, workers,
        restarts, trace,
    )


def _optimize(
    query: Query | JoinGraph,
    method: str | Strategy,
    model: CostModel | None,
    time_factor: float,
    units_per_n2: float,
    seed: int,
    budget: Budget | None,
    params: MethodParams | None,
    stop_at_bound: bool,
    bound_tolerance: float,
    resilient: bool,
    workers: int | None,
    restarts: int | None,
    trace: Tracer | str | None,
    record_floor: float | None = None,
    failures: FailureLog | None = None,
) -> OptimizationResult:
    """:func:`optimize`, plus the orchestrator's pre-pass floor and the
    log a resilient run shares with the runs of its components.

    ``record_floor`` is a trusted upper bound on the cost that still
    matters: on a connected graph, start states pricier than it are
    skipped.  ``failures`` is the caller's log when this run solves one
    component of a resilient run's graph; the result then carries only
    the records this run added.
    """
    graph = query.graph if isinstance(query, Query) else query
    if model is None:
        model = MainMemoryCostModel()
    if params is None:
        params = MethodParams()
    n_joins = max(1, graph.n_joins)
    if budget is None:
        budget = Budget.for_query(n_joins, time_factor, units_per_n2)
    target_cost = (
        bound_tolerance * lower_bound(graph, model) if stop_at_bound else None
    )
    tracer, trace_path = as_tracer(trace)
    if tracer.enabled:
        tracer.bind_clock(budget)
        tracer.emit(
            obs_events.RUN_START,
            method=_method_label(method),
            n_relations=graph.n_relations,
            seed=seed,
            budget=budget.limit,
        )
        if target_cost is not None:
            tracer.emit(obs_events.BOUND, kind="early_stop", value=target_cost)
            tracer.metrics.inc("bounds_published")

    if workers is not None or restarts is not None:
        if resilient:
            raise ValueError(
                "resilient=True cannot be combined with workers/restarts: "
                "the parallel orchestrator has its own crash recovery "
                "(crashed restarts are re-executed serially, never dropped)"
            )
        # Imported lazily: repro.parallel sits above core.
        from repro.parallel.orchestrator import multi_start_optimize

        result, _report = multi_start_optimize(
            graph,
            method=method,
            model=model,
            time_factor=time_factor,
            units_per_n2=units_per_n2,
            seed=seed,
            budget=budget,
            params=params,
            restarts=restarts,
            workers=workers,
            stop_at_bound=stop_at_bound,
            bound_tolerance=bound_tolerance,
            tracer=tracer,
        )
        _finish_trace(result, tracer, trace_path, budget)
        return result

    # The plain run raises on a failure; a resilient run records it in
    # ``failures`` and falls back.  Imported lazily: robustness sits
    # above core, and importing it at module scope would be circular.
    outer = failures is None
    if resilient:
        from repro.robustness.resilience import FailureLog, NoValidPlanError
        from repro.robustness.verify import verify_plan

        if outer:
            failures = FailureLog(tracer=tracer)
        mark = len(failures)
    label = _method_label(method)
    # Set for an order no search priced (the spanning order, or the
    # components' orders concatenated): what a resilient run records if
    # pricing or gating it fails, as (stage, seed, what, message).
    unpriced: tuple[str, int | None, str, str] | None = None
    if graph.n_relations == 1:
        result = _single_relation_result(graph, method)
    else:
        if graph.is_connected:
            strategy = make_strategy(method)
            # The RNG stream is keyed on the method *string* exactly as
            # passed, so historical seeds stay bit-for-bit reproducible;
            # Strategy instances key on their registered name.
            rng_key = method if isinstance(method, str) else strategy.name
            rng = derive_rng(seed, "optimize", rng_key, graph.n_relations)
            evaluator = make_evaluator(
                graph, model, budget, target_cost=target_cost,
                record_floor=record_floor,
            )
            evaluator.tracer = tracer
            try:
                strategy.run(evaluator, rng, params)
            except (BudgetExhausted, TargetReached):
                pass
            # boundary: the first resilient guard; the best plan recorded
            # before the strategy raised still counts.
            except Exception as exc:
                if failures is None:
                    raise
                failures.add(
                    stage="attempt", method=label, seed=seed,
                    kind="exception", detail=f"{type(exc).__name__}: {exc}",
                    action="kept the best plan found so far"
                    if evaluator.best is not None
                    else "fell back to the spanning order",
                )
            best = evaluator.best
            n_evaluations = evaluator.n_evaluations
            if failures is None:
                if best is None:
                    raise BudgetExhausted(
                        "budget expired before any plan could be evaluated"
                    )
            elif best is None:
                if len(failures) == mark:  # the strategy raised nothing
                    failures.add(
                        stage="attempt", method=label, seed=seed,
                        kind="no-plan",
                        detail="budget exhausted before any finite-cost "
                        "plan was recorded",
                        action="fell back to the spanning order",
                    )
            else:
                report = verify_plan(best.order, best.cost, graph, model)
                if not report.ok:
                    failures.add(
                        stage="attempt", method=label, seed=seed,
                        kind="verification",
                        detail="; ".join(report.violations),
                        action="discarded the plan",
                    )
                    best = None
            if best is not None:
                order, cost = best.order, best.cost
                trajectory = tuple(evaluator.trajectory)
            else:
                # The second resilient guard: the spanning order, valid
                # by construction.
                label = SPANNING_METHOD
                order = deterministic_fallback_order(graph)
                unpriced = (
                    "last-resort", None, "the spanning order",
                    "neither the search nor the deterministic spanning "
                    "order produced a verifiable plan",
                )
        else:
            pieces: list[OptimizationResult] = []

            def solve(
                component: tuple[int, ...], subgraph: JoinGraph, share: Budget
            ) -> JoinOrder:
                piece = _optimize(
                    subgraph, method=method, model=model,
                    time_factor=time_factor, units_per_n2=units_per_n2,
                    seed=seed, budget=share, params=params,
                    stop_at_bound=False, bound_tolerance=bound_tolerance,
                    resilient=resilient, workers=None, restarts=None,
                    trace=tracer, failures=failures,
                )
                pieces.append(piece)
                if failures is not None and piece.method == SPANNING_METHOD:
                    failures.add(
                        stage="component", method=label, seed=seed,
                        kind="no-plan",
                        detail=f"component {component} produced no "
                        "verifiable plan",
                        action="used its deterministic spanning order",
                    )
                return piece.order

            order = postpone_cross_products(graph, budget, solve, tracer)
            # Reported as the components' one method, if they agree.
            sources = {piece.method for piece in pieces}
            if len(sources) == 1:
                label = sources.pop()
            n_evaluations = sum(piece.n_evaluations for piece in pieces)
            unpriced = (
                "concatenation", seed, "the concatenated order",
                "the concatenated per-component plan failed verification",
            )
        if unpriced is not None:
            stage, logged_seed, what, message = unpriced
            try:
                cost = model.plan_cost(order, graph)
            # boundary: a resilient run survives any fault pricing an
            # order no search priced, and records it.
            except Exception as exc:
                if failures is None:
                    raise
                failures.add(
                    stage=stage, method=label, seed=logged_seed,
                    kind="exception",
                    detail=f"pricing {what} raised "
                    f"{type(exc).__name__}: {exc}",
                    action="gave up",
                )
                raise NoValidPlanError(message, failures) from exc
            if failures is not None:
                report = verify_plan(order, cost, graph, model)
                if not report.ok:
                    failures.add(
                        stage=stage, method=label, seed=logged_seed,
                        kind="verification",
                        detail="; ".join(report.violations),
                        action="gave up",
                    )
                    raise NoValidPlanError(message, failures)
            trajectory = ((budget.spent, cost),)
        logged = () if failures is None else tuple(failures.records[mark:])
        result = OptimizationResult(
            method=label,
            graph=graph,
            order=order,
            cost=cost,
            units_spent=budget.spent,
            n_evaluations=n_evaluations,
            trajectory=trajectory,
            degraded=bool(logged),
            failures=logged,
        )
    if failures is None:
        from repro.robustness.verify import verify_or_raise

        verify_or_raise(result.order, result.cost, graph, model)
    elif outer and result.degraded and tracer.enabled:
        tracer.emit(
            obs_events.DEGRADED,
            method=result.method,
            failures=len(result.failures),
        )
        tracer.metrics.inc("degraded_runs")
    _finish_trace(result, tracer, trace_path, budget)
    return result


def _finish_trace(
    result: OptimizationResult,
    tracer: Tracer,
    trace_path: str | None,
    budget: Budget,
) -> None:
    """Emit the run's closing event and flush the sink."""
    if tracer.enabled:
        tracer.bind_clock(budget)
        tracer.emit(
            obs_events.RUN_END,
            cost=result.cost,
            units=result.units_spent,
            evaluations=result.n_evaluations,
            degraded=result.degraded,
        )
        if trace_path is not None:
            write_trace(
                getattr(tracer, "events", []),
                trace_path,
                meta={"method": result.method, "n_relations": result.graph.n_relations},
            )


def postpone_cross_products(
    graph: JoinGraph,
    budget: Budget,
    solve: Callable[[tuple[int, ...], JoinGraph, Budget], JoinOrder],
    tracer: Tracer | None = None,
) -> JoinOrder:
    """The paper's rule for a disconnected graph: cross products go last.

    Each component of two or more relations is handed to
    ``solve(component, subgraph, share)``: ``component`` is its tuple of
    vertices in ``graph``, ``share`` a :meth:`~Budget.share` of
    ``budget`` proportional to its ``N^2`` (at least 1), and ``solve``
    returns the subgraph's order in local numbering.  The share's spend
    is added back to ``budget``.  The component orders are concatenated
    smallest estimated result first, so the cross products at the end
    multiply small results first.
    """
    components = graph.components
    weights = [max(1, len(c) - 1) ** 2 for c in components]
    total_weight = sum(weights)
    if tracer is not None and not tracer.enabled:
        tracer = None
    pieces: list[tuple[float, list[int]]] = []
    for component, weight in zip(components, weights):
        subgraph = graph.subgraph(component)
        if len(component) == 1:
            local = JoinOrder([0])
        else:
            share = budget.share(weight, total_weight)
            if tracer is not None:
                tracer.phase_start("component", relations=len(component))
            local = solve(component, subgraph, share)
            budget.spent = min(budget.limit, budget.spent + share.spent)
            if tracer is not None:
                # A nested run re-binds the clock to its share; restore it.
                tracer.bind_clock(budget)
                tracer.phase_end("component", relations=len(component))
        try:
            size = prefix_cardinalities(local, subgraph)[-1]
        except CostOverflowError:
            # Sizing only orders the pieces: an unpriceable one goes last.
            size = math.inf
        pieces.append((size, [component[i] for i in local]))
    pieces.sort(key=lambda piece: piece[0])
    return JoinOrder([vertex for _, piece in pieces for vertex in piece])
