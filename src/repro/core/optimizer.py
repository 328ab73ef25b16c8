"""The public entry point: ``optimize(query, method=...)``.

Handles the pre-search heuristics the paper applies before the
combinatorial search proper:

* selections/projections are already folded into the catalog statistics
  (``Relation.cardinality`` is the post-selection ``N_k``);
* cross products are postponed (:func:`postpone_cross_products`): a
  disconnected join graph is split into components, each optimized
  separately with a budget share proportional to its ``N^2``, and the
  component orders are concatenated smallest estimated result first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

from repro.catalog.join_graph import JoinGraph, Query
from repro.core.budget import Budget, BudgetExhausted, DEFAULT_UNITS_PER_N2
from repro.core.combinations import (
    MethodParams,
    Strategy,
    available_method_names,
    make_strategy,
)
from repro.core.state import Evaluator, TargetReached, make_evaluator
from repro.cost.base import CostModel
from repro.cost.bounds import lower_bound
from repro.cost.cardinality import CostOverflowError, prefix_cardinalities
from repro.cost.memory import MainMemoryCostModel
from repro.obs import events as obs_events
from repro.obs.tracer import Tracer, as_tracer
from repro.obs.writer import write_trace
from repro.plans.join_order import JoinOrder
from repro.plans.join_tree import JoinTree, build_join_tree
from repro.utils.rng import derive_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.provenance import PlanProvenance


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one optimizer invocation.

    ``degraded`` is True when the resilient fallback chain had to recover
    from at least one failure to produce this result; ``failures`` holds
    the corresponding :class:`~repro.robustness.resilience.FailureRecord`
    entries, in the order they occurred (empty for clean runs).

    ``provenance`` is the incumbent lineage reconstructed from the trace
    (:mod:`repro.obs.provenance`) when tracing was on, else ``None``.
    It is excluded from equality/hash so a traced result still compares
    equal to its untraced twin — the differential determinism suite
    relies on tracing never changing the result.
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
    provenance: "PlanProvenance | None" = field(
        default=None, compare=False, repr=False
    )

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


def _optimize_connected(
    graph: JoinGraph,
    method: str | Strategy,
    model: CostModel,
    budget: Budget,
    seed: int,
    params: MethodParams,
    target_cost: float | None = None,
    record_floor: float | None = None,
    tracer: Tracer | None = None,
) -> Evaluator:
    """Run one strategy on a connected graph; returns its evaluator."""
    strategy = make_strategy(method)
    # The RNG stream is keyed on the method *string* exactly as passed, so
    # historical seeds stay bit-for-bit reproducible; Strategy instances
    # key on their registered name.
    rng_key = method if isinstance(method, str) else strategy.name
    rng = derive_rng(seed, "optimize", rng_key, graph.n_relations)
    evaluator = make_evaluator(
        graph, model, budget, target_cost=target_cost,
        record_floor=record_floor,
    )
    if tracer is not None:
        evaluator.tracer = tracer
    try:
        strategy.run(evaluator, rng, params)
    except (BudgetExhausted, TargetReached):
        pass
    return evaluator


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
    max_retries: int = 2,
    workers: int | None = None,
    restarts: int | None = None,
    record_floor: float | None = None,
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
    resilient / max_retries:
        With ``resilient=True``, failures (cost-model exceptions, NaN/inf
        costs, corrupted statistics, exhausted budgets) are absorbed by a
        fallback chain — rotated-seed retries, method degradation, and a
        deterministic spanning order as a last resort — instead of
        propagating; see :mod:`repro.robustness.resilience`.  The result's
        ``degraded``/``failures`` fields record what happened.
        ``max_retries`` bounds the rotated-seed retries per stage.
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
    record_floor:
        A trusted upper bound on the cost that still matters: start
        states pricier than the floor are skipped.  Set by the
        orchestrator to its pre-pass floor; rarely useful directly.
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
        tracer.metrics.gauge("budget_limit", budget.limit)
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
        return _finish_trace(result, tracer, trace_path, budget)

    if resilient:
        # Imported lazily: robustness is a layer above core and importing
        # it at module scope would be circular.
        from repro.robustness.resilience import resilient_optimize

        result = resilient_optimize(
            graph,
            method=method,
            model=model,
            budget=budget,
            seed=seed,
            params=params,
            target_cost=target_cost,
            max_retries=max_retries,
            tracer=tracer,
        )
        return _finish_trace(result, tracer, trace_path, budget)

    if graph.n_relations == 1:
        result = _single_relation_result(graph, method)
    elif graph.is_connected:
        evaluator = _optimize_connected(
            graph,
            method,
            model,
            budget,
            seed,
            params,
            target_cost,
            record_floor=record_floor,
            tracer=tracer,
        )
        if evaluator.best is None:
            raise BudgetExhausted(
                "budget expired before any plan could be evaluated"
            )
        result = OptimizationResult(
            method=_method_label(method),
            graph=graph,
            order=evaluator.best.order,
            cost=evaluator.best.cost,
            units_spent=budget.spent,
            n_evaluations=evaluator.n_evaluations,
            trajectory=tuple(evaluator.trajectory),
        )
    else:
        pieces: list[OptimizationResult] = []

        def solve(
            component: tuple[int, ...], subgraph: JoinGraph, share: Budget
        ) -> JoinOrder:
            piece = optimize(
                subgraph, method=method, model=model, seed=seed,
                budget=share, params=params, trace=tracer,
            )
            pieces.append(piece)
            return piece.order

        order = postpone_cross_products(graph, budget, solve, tracer)
        cost = model.plan_cost(order, graph)
        result = OptimizationResult(
            method=_method_label(method),
            graph=graph,
            order=order,
            cost=cost,
            units_spent=budget.spent,
            n_evaluations=sum(piece.n_evaluations for piece in pieces),
            trajectory=((budget.spent, cost),),
        )
    from repro.robustness.verify import verify_or_raise

    verify_or_raise(result.order, result.cost, graph, model)
    return _finish_trace(result, tracer, trace_path, budget)


def _finish_trace(
    result: OptimizationResult,
    tracer: Tracer,
    trace_path: str | None,
    budget: Budget,
) -> OptimizationResult:
    """Emit the run's closing event, attach provenance, flush the sink."""
    if tracer.enabled:
        tracer.bind_clock(budget)
        tracer.emit(
            obs_events.RUN_END,
            cost=result.cost,
            units=result.units_spent,
            evaluations=result.n_evaluations,
            degraded=result.degraded,
        )
        tracer.metrics.gauge("best_cost", result.cost)
        tracer.metrics.gauge("budget_spent", budget.spent)
        events = getattr(tracer, "events", None)
        if events is not None:
            # Reconstructed from the trace just closed — a pure fold
            # over the events, so the result object itself stays
            # byte-identical to an untraced run's (the field is
            # excluded from equality).
            from repro.obs.provenance import build_provenance

            result = replace(result, provenance=build_provenance(events))
        if trace_path is not None:
            write_trace(
                events if events is not None else [],
                trace_path,
                meta={"method": result.method, "n_relations": result.graph.n_relations},
            )
    return result


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
