"""Exact branch-and-bound join ordering under the propagating cost models.

Distinct-value propagation makes a plan's suffix cost depend on its
prefix *order*, which breaks the Bellman principle System R's subset DP
needs.  This module searches **prefixes**, not subsets, with a memoized
best-first branch-and-bound over left-deep orders, and so is exact under
the propagating estimator every method optimizes for: both stock
models.  A model that overrides ``plan_cost`` (a different estimator
such as :class:`~repro.cost.static.StaticCostModel`, or a fault
injector) is refused, since the search cannot replicate its semantics.

Design (and why the result is *bitwise* minimal, not merely
mathematically minimal — the differential suite in
``tests/test_core_exact.py`` compares against exhaustive enumeration
with ``==``):

* **Cost chains are the estimator's own steps.**  Prefixes are
  extended through :func:`repro.cost.cardinality.extend_state` (a copy,
  then the :func:`~repro.cost.cardinality.step` that ``plan_cost``
  folds), so a completed chain's cost is the identical float
  ``plan_cost`` returns for that order.
* **Pruning uses the running prefix cost, and the remainder floor past
  a proven rounding margin.**  A node is discarded when its accumulated
  cost ``g`` already reaches the incumbent: join costs are
  non-negative, and float addition of non-negative terms is monotone,
  so every completion of the node computes a total ``>= g`` *in float
  arithmetic*.  The remainder floor ``h`` — the sum, over unplaced
  relations, of ``floors[v] = join_cost(1, N_v, 1)`` — orders the
  frontier (best-first on ``g + h``) and discards a node, at generation
  and at pop, when ``g + h - total_floor * 1e-12`` exceeds the
  incumbent times ``1 + 1e-9``.  No completion of such a node prices at
  or below the incumbent:

  1. every unplaced relation is joined exactly once, as an inner, with
     outer and result sizes of at least one tuple (the clamp);
  2. every shipped ``join_cost`` is non-negative and non-decreasing in
     outer and result size (:meth:`CostModel.join_cost`'s contract), so
     each such join prices ``>= floors[v]``, in floats; a floor that
     could not be priced is 0.0, still a lower bound;
  3. a completion's total is a left-to-right float sum of ``k``
     non-negative terms after ``g``, so it is at least their real sum
     times ``1 - k u``, with ``u = 2**-53``;
  4. the running subtraction that maintains ``h`` stays within about
     ``2 n u total_floor`` of the real floor sum, inside the slack for
     ``n`` up to the thousands.

  So every completion prices strictly above the incumbent, and no order
  that could become or tie it is discarded.  Without the margin ``g +
  h`` re-associates the final sum and can exceed a completion's total
  by an ulp at a tie, losing the bitwise minimum.  When the floor sum
  overflows (relations near the float ceiling), the floor prunes
  nothing.
* **Dominance memoization.**  Two prefixes over the same relation set
  are compared componentwise, by a test written inline in
  :func:`_branch_and_bound`'s expansion loop; a dominated prefix cannot
  complete cheaper, bitwise, because every downstream operation is
  float-monotone in the dominated components.
* **Disconnected graphs are searched natively**: the branching rule is
  exactly :func:`repro.plans.validity.first_invalid_position`'s — finish
  the open component before starting another — so the search space *is*
  the valid-order space and cross products never appear mid-component.

The frontier is seeded with the greedy order.  KBZ and augmentation
incumbents polished by a short iterative-improvement descent join it
only when the budget cannot cover the search's worst case: a search
sure to complete expands the same nodes from any incumbent (best-first
on an admissible floor, up to the rounding of ``h``; see
``docs/exact.md``), so there they could only add work.
Feasibility: exhaustive enumeration dies around 10 relations; the
branch-and-bound is comfortable to N≈15–18 depending on graph shape (see
``docs/exact.md`` and ``benchmarks/test_perf_exact.py``).  Beyond
:data:`DEFAULT_MAX_EXACT` relations the EXACT method runs iterative
improvement instead.

The optimality-gap surface (:func:`optimality_gap`,
:func:`build_gap_report`, :func:`gap_report_json`) turns any
``compare_methods`` result mapping into *true cost / exact optimum*
ratios with a byte-stable JSON rendering; without an exact result it
anchors on the best plan the compared methods found (the paper's §6.1
scaling).  The CLI's ``repro gap`` is a thin wrapper over it.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Mapping

from repro.catalog.join_graph import JoinGraph, Query
from repro.core.budget import Budget, BudgetExhausted
from repro.core.combinations import (
    IterativeImprovementStrategy,
    MethodParams,
    Strategy,
)
from repro.core.iterative import improvement_run
from repro.core.moves import MoveSet
from repro.core.state import DeltaEvaluator, Evaluator
from repro.cost.base import CostModel
from repro.cost.cardinality import (
    CostOverflowError,
    PrefixState,
    extend_state,
    start_state,
)
from repro.cost.incremental import supports_incremental
from repro.cost.memory import MainMemoryCostModel
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.join_order import JoinOrder
from repro.plans.validity import deterministic_fallback_order
from repro.utils.rng import derive_rng

__all__ = [
    "DEFAULT_MAX_EXACT",
    "ExactResult",
    "ExactStrategy",
    "GapReport",
    "GapRow",
    "build_gap_report",
    "exact_optimum",
    "gap_report_json",
    "optimality_gap",
]

#: Relation-count ceiling for the branch-and-bound entry point, and the
#: size above which the EXACT method runs iterative improvement instead.
#: Chosen from the feasibility measurements in BENCH_exact.json: chains
#: and stars stay sub-second well past this, dense cyclic graphs start
#: to strain around it.
DEFAULT_MAX_EXACT = 16

#: Budget units charged per node extension — one join-cost evaluation,
#: the same unit every other method's accounting is denominated in.
_EXTEND_CHARGE = 1.0

#: The remainder floor prunes a node only when ``g + h``, less
#: ``total_floor * _FLOOR_SLACK``, exceeds the incumbent times
#: ``_FLOOR_GROW``.  The slack covers the rounding of ``h``'s running
#: subtraction (about ``2 n u`` of ``total_floor``, ``u = 2**-53``) and
#: the relative margin covers the rounding of a completion's float sum
#: (about ``n u``), each with orders of magnitude to spare for ``n`` up
#: to the thousands; the module docstring gives the proof.  Change them
#: only together with it.
_FLOOR_SLACK = 1e-12
_FLOOR_GROW = 1.0 + 1e-9


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact optimization pass.

    ``proven`` distinguishes a certificate of optimality (the search ran
    to completion) from a best-effort answer (budget expired with
    ``allow_partial``).  ``cost`` is always the true ``plan_cost`` of
    ``order`` under the model searched — bitwise.
    """

    order: JoinOrder
    cost: float
    proven: bool
    n_relations: int
    nodes_expanded: int
    nodes_pruned_bound: int
    nodes_pruned_dominated: int
    incumbent_updates: int
    n_cost_evaluations: int
    units_spent: float


# ----------------------------------------------------------------------
# The branch-and-bound
# ----------------------------------------------------------------------


@dataclass
class _SearchStats:
    nodes_expanded: int = 0
    pruned_bound: int = 0
    pruned_dominated: int = 0
    incumbent_updates: int = 0
    n_cost_evaluations: int = 0


def _search_worst_case(n: int) -> int:
    """Most extensions the branch-and-bound can charge over ``n`` relations.

    One per ordered prefix of two or more relations.
    """
    return sum(math.perm(n, k) for k in range(2, n + 1))


def _seed_incumbent(evaluator: DeltaEvaluator, seed: int) -> None:
    """Price the greedy order, plus heuristic starts polished by II.

    The KBZ and augmentation starts and the polish run only when the
    budget cannot cover the search's worst case, where the incumbent may
    be the answer.  Every plan is priced through ``evaluator``, whose
    ``best`` is then the incumbent (``None`` only when the budget expired
    before the first one completed).  All costs come from full evaluator
    walks, so the incumbent's cost is bitwise comparable with the
    search's own chains.
    """
    graph, budget = evaluator.graph, evaluator.budget
    n = graph.n_relations
    try:
        evaluator.evaluate(deterministic_fallback_order(graph))
        if not budget.can_afford(_search_worst_case(n)):
            if graph.is_connected and n >= 3:
                # Imported lazily: both generator modules are heavyweight
                # and connected-only; the greedy seed covers the rest.
                from repro.core.augmentation import (
                    DEFAULT_CRITERION,
                    augmentation_orders,
                )
                from repro.core.kbz import DEFAULT_WEIGHT, kbz_orders

                for order in kbz_orders(graph, DEFAULT_WEIGHT, budget):
                    evaluator.evaluate(order)
                for order in augmentation_orders(
                    graph, DEFAULT_CRITERION, budget
                ):
                    evaluator.evaluate(order)
            if evaluator.best is not None:
                improvement_run(
                    evaluator.best.order,
                    evaluator,
                    MoveSet(),
                    derive_rng(seed, "exact", "incumbent", n),
                    start_cost=evaluator.best.cost,
                )
    # boundary: seeding is best-effort — an overflowing heuristic order
    # or an expired budget leaves whatever incumbent was recorded; the
    # search itself decides whether that is fatal.
    except (BudgetExhausted, CostOverflowError, OverflowError):
        pass


def _branch_and_bound(evaluator: DeltaEvaluator, stats: _SearchStats) -> None:
    """Best-first search over valid prefixes, from ``evaluator.best``.

    Extends prefixes on the evaluator's compiled context, charges its
    budget one unit per extension, and records each cheaper complete
    order through :meth:`~repro.core.state.Evaluator.record`, so the
    answer is ``evaluator.best``: ``None`` only when every valid order
    overflowed.  Raises :class:`BudgetExhausted` mid-search (the caller
    decides whether the incumbent reached so far is an acceptable
    answer).
    """
    context, budget = evaluator.engine.context, evaluator.budget
    graph, model = context.graph, context.model
    n = graph.n_relations
    full = (1 << n) - 1
    neighbor_masks = graph.neighbor_masks
    component_of = [0] * n
    component_masks: list[int] = []
    for index, component in enumerate(graph.components):
        mask = 0
        for vertex in component:
            component_of[vertex] = index
            mask |= 1 << vertex
        component_masks.append(mask)

    # Frontier priority: g + h with h the sum, over unplaced relations,
    # of the cheapest join that could ever involve them (outer and
    # result collapsed to one tuple).  It also prunes, past the rounding
    # margin the module docstring proves; a floor sum that overflows
    # prunes nothing.
    floors: list[float] = []
    for vertex in range(n):
        try:
            floor = model.join_cost(1.0, graph.cardinality(vertex), 1.0)
        # boundary: a model that cannot even price the floor join forfeits
        # this relation's share of the floor (0.0 still bounds it below),
        # nothing else.
        except (OverflowError, ValueError):
            floor = 0.0
        floors.append(floor if math.isfinite(floor) else 0.0)
    total_floor = sum(floors)
    floor_prunes = math.isfinite(total_floor)
    slack = total_floor * _FLOOR_SLACK if floor_prunes else 0.0

    best_cost = math.inf if evaluator.best is None else evaluator.best.cost
    # A node whose g + h - slack exceeds this is discarded; infinite
    # until there is an incumbent.
    cutoff = best_cost * _FLOOR_GROW

    counter = 0
    # Heap entries: (priority, insertion counter, order, state, h,
    # adjacency mask of the placed set).  The counter makes equal
    # priorities pop in insertion order — fully deterministic.
    heap: list[tuple[float, int, tuple[int, ...], PrefixState, float, int]] = []
    store: dict[int, list[PrefixState]] = {}
    for first in range(n):
        state = start_state(context, first)
        h = total_floor - floors[first]
        heapq.heappush(
            heap, (state.cost + h, counter, (first,), state, h, neighbor_masks[first])
        )
        counter += 1
        store[state.mask] = [state]

    while heap:
        key, _, order, state, h, adjacent = heapq.heappop(heap)
        if state.cost >= best_cost or (
            floor_prunes and key - slack > cutoff
        ):
            stats.pruned_bound += 1
            continue
        stats.nodes_expanded += 1
        mask = state.mask
        open_remaining = component_masks[component_of[order[-1]]] & ~mask
        if open_remaining:
            candidates = adjacent & ~mask
        else:
            candidates = ~mask & full
        while candidates:
            low_bit = candidates & -candidates
            candidates ^= low_bit
            vertex = low_bit.bit_length() - 1
            budget.charge(_EXTEND_CHARGE)
            stats.n_cost_evaluations += 1
            try:
                child = extend_state(context, state, vertex)
            # boundary: an overflowing prefix means every completion of
            # it overflows too (the walk is prefix-deterministic), i.e.
            # plan_cost raises for all of them — the branch holds no
            # finite-cost orders to find.
            except (CostOverflowError, OverflowError):
                continue
            if not math.isfinite(child.cost):
                continue
            child_h = h - floors[vertex]
            child_key = child.cost + child_h
            if child.cost >= best_cost or (
                floor_prunes and child_key - slack > cutoff
            ):
                stats.pruned_bound += 1
                continue
            child_mask = child.mask
            if child_mask == full:
                best_cost = child.cost
                cutoff = best_cost * _FLOOR_GROW
                stats.incumbent_updates += 1
                evaluator.record(JoinOrder(order + (vertex,)), best_cost)
                continue
            # A kept prefix over the same relations with no larger cost
            # or size and no smaller caps completes every suffix at no
            # higher cost, bitwise: the walk is float-monotone in each
            # (caps clamp through min in a fixed adjacency order, sizes
            # multiply by positive factors, and join_cost rises with
            # outer and result size, as CostModel.join_cost requires).
            # Equal masks give equal cap key sets; the key checks only
            # guard that.
            bucket = store.setdefault(child_mask, [])
            cost, size, caps = child.cost, child.size, child.caps
            dominated = False
            for kept in bucket:
                if kept.cost > cost or kept.size > size:
                    continue
                kept_caps = kept.caps
                if len(kept_caps) != len(caps):
                    continue
                for relation, cap in kept_caps.items():
                    other = caps.get(relation)
                    if other is None or cap < other:
                        break
                else:
                    dominated = True
                    break
            if dominated:
                stats.pruned_dominated += 1
                continue
            bucket.append(child)
            heapq.heappush(
                heap,
                (
                    child_key,
                    counter,
                    order + (vertex,),
                    child,
                    child_h,
                    adjacent | neighbor_masks[vertex],
                ),
            )
            counter += 1


def _search(
    evaluator: DeltaEvaluator, seed: int, allow_partial: bool
) -> tuple[_SearchStats, bool]:
    """Seed, then branch-and-bound, all on ``evaluator``; (stats, proven).

    The answer is ``evaluator.best``.  A search the budget cuts short
    raises :class:`BudgetExhausted` unless ``allow_partial`` is set and
    an order was recorded, in which case it returns ``proven=False``.
    """
    tracer = evaluator.tracer
    stats = _SearchStats()
    if tracer.enabled:
        tracer.phase_start("exact_seed")
    try:
        _seed_incumbent(evaluator, seed)
    finally:
        if tracer.enabled:
            tracer.phase_end("exact_seed")
    stats.n_cost_evaluations = evaluator.n_joins_evaluated
    if tracer.enabled:
        tracer.phase_start("exact_bnb")
    proven = True
    try:
        _branch_and_bound(evaluator, stats)
    except BudgetExhausted:
        if not allow_partial or evaluator.best is None:
            raise
        proven = False
    finally:
        if tracer.enabled:
            tracer.phase_end("exact_bnb")
    if tracer.enabled:
        metrics = tracer.metrics
        metrics.inc("exact_nodes_expanded", float(stats.nodes_expanded))
        metrics.inc("exact_nodes_pruned_bound", float(stats.pruned_bound))
        metrics.inc(
            "exact_nodes_pruned_dominated", float(stats.pruned_dominated)
        )
        metrics.inc(
            "exact_incumbent_updates", float(stats.incumbent_updates)
        )
    return stats, proven


def _refusal(model: CostModel) -> ValueError:
    return ValueError(
        f"cost model {model!r} overrides plan_cost with semantics the "
        "exact search cannot replicate; use a model that inherits "
        "CostModel.plan_cost"
    )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def exact_optimum(
    query: Query | JoinGraph,
    model: CostModel | None = None,
    *,
    budget: Budget | None = None,
    max_relations: int = DEFAULT_MAX_EXACT,
    seed: int = 0,
    allow_partial: bool = False,
    trace: Tracer | None = None,
) -> ExactResult:
    """The provably cheapest valid outer-linear order under ``model``.

    Works on connected and disconnected graphs alike (the branching rule
    enumerates exactly the valid orders).  ``budget`` is charged one
    unit per join-cost evaluation; on exhaustion the search raises
    :class:`BudgetExhausted` unless ``allow_partial`` is set, in which
    case the best incumbent found so far is returned with
    ``proven=False`` (still raising when not even one order completed).
    ``max_relations`` guards against accidentally launching an
    exponential search — raise it explicitly past the feasibility
    frontier.  A model that overrides ``plan_cost`` (such as
    :class:`~repro.cost.static.StaticCostModel`) raises
    :class:`ValueError`: the search folds the propagating step, so it
    cannot reproduce that model's costs.  A ``trace`` tracer receives
    the search's events on whatever clock its owner bound.
    """
    graph = query.graph if isinstance(query, Query) else query
    if model is None:
        model = MainMemoryCostModel()
    n = graph.n_relations
    if n > max_relations:
        raise ValueError(
            f"exact search over {n} relations exceeds max_relations="
            f"{max_relations}; raise it explicitly"
        )
    if not supports_incremental(model):
        raise _refusal(model)
    if budget is None:
        budget = Budget.unlimited()
    if n == 1:
        return ExactResult(
            order=JoinOrder([0]),
            cost=0.0,
            proven=True,
            n_relations=1,
            nodes_expanded=0,
            nodes_pruned_bound=0,
            nodes_pruned_dominated=0,
            incumbent_updates=0,
            n_cost_evaluations=0,
            units_spent=budget.spent,
        )

    evaluator = DeltaEvaluator(graph, model, budget)
    evaluator.tracer = NULL_TRACER if trace is None else trace
    stats, proven = _search(evaluator, seed, allow_partial)
    if evaluator.best is None:
        raise CostOverflowError(
            f"every valid order of {n} relations overflows under "
            f"{model.name}; no finite-cost exact optimum exists"
        )
    return ExactResult(
        order=evaluator.best.order,
        cost=evaluator.best.cost,
        proven=proven,
        n_relations=n,
        nodes_expanded=stats.nodes_expanded,
        nodes_pruned_bound=stats.pruned_bound,
        nodes_pruned_dominated=stats.pruned_dominated,
        incumbent_updates=stats.incumbent_updates,
        n_cost_evaluations=stats.n_cost_evaluations,
        units_spent=budget.spent,
    )


# ----------------------------------------------------------------------
# Optimality gaps
# ----------------------------------------------------------------------


def optimality_gap(cost: float, exact_cost: float) -> float:
    """``cost / exact_cost`` — how far a result sits above the optimum.

    Exactly ``>= 1.0`` whenever ``cost`` is the true cost of a valid
    order and ``exact_cost`` the exact optimum under the same model:
    the optimum is the minimum over the same value set, and IEEE-754
    division of ``x >= y > 0`` never rounds below one.
    """
    if exact_cost <= 0.0:
        return 1.0 if cost <= 0.0 else math.inf
    return cost / exact_cost


@dataclass(frozen=True)
class GapRow:
    """One method's cost and optimality gap."""

    method: str
    cost: float
    gap: float
    n_evaluations: int


@dataclass(frozen=True)
class GapReport:
    """A method comparison anchored to the exact optimum.

    ``proven`` is the exact pass's flag.  When False (a partial budget,
    or ``mode="best-found"``: no exact pass, the anchor is the cheapest
    compared plan) the "gaps" are ratios to the best *known* cost, and
    may understate the true distance to optimal (never overstate a
    method: the reference can only be too high).
    """

    query: str
    n_relations: int
    model: str
    exact_cost: float
    exact_order: tuple[int, ...]
    proven: bool
    mode: str
    nodes_expanded: int
    nodes_pruned_bound: int
    nodes_pruned_dominated: int
    incumbent_updates: int
    rows: tuple[GapRow, ...]


def build_gap_report(
    query: Query | JoinGraph,
    model: CostModel,
    results: Mapping[str, Any],
    exact: ExactResult | None = None,
) -> GapReport:
    """Anchor a ``compare_methods`` result mapping to an exact result.

    Without one, the anchor is the cheapest result (ties broken by
    method name), reported with ``proven=False`` and
    ``mode="best-found"``.  Rows are sorted by (cost, method) —
    deterministic, and identical for any ``workers`` count because both
    inputs are (the comparison is bit-identical across worker counts and
    the exact pass runs in the parent process).
    """
    graph = query.graph if isinstance(query, Query) else query
    name = query.name if isinstance(query, Query) else "adhoc"
    ranked = sorted(results.items(), key=lambda item: (item[1].cost, item[0]))
    if exact is None:
        best = ranked[0][1]
        anchor_cost, anchor_order = best.cost, best.order.positions
        proven, mode, counters = False, "best-found", (0, 0, 0, 0)
    else:
        anchor_cost, anchor_order = exact.cost, exact.order.positions
        proven, mode = exact.proven, "branch-and-bound"
        counters = (
            exact.nodes_expanded,
            exact.nodes_pruned_bound,
            exact.nodes_pruned_dominated,
            exact.incumbent_updates,
        )
    rows = tuple(
        GapRow(
            method=method,
            cost=result.cost,
            gap=optimality_gap(result.cost, anchor_cost),
            n_evaluations=result.n_evaluations,
        )
        for method, result in ranked
    )
    return GapReport(
        query=name,
        n_relations=graph.n_relations,
        model=model.name,
        exact_cost=anchor_cost,
        exact_order=anchor_order,
        proven=proven,
        mode=mode,
        nodes_expanded=counters[0],
        nodes_pruned_bound=counters[1],
        nodes_pruned_dominated=counters[2],
        incumbent_updates=counters[3],
        rows=rows,
    )


def gap_report_json(report: GapReport) -> str:
    """Canonical byte-stable JSON rendering of a gap report.

    A best-found anchor ran no search, so it carries no search counters.
    """
    anchor: dict[str, Any] = {
        "cost": report.exact_cost,
        "order": list(report.exact_order),
        "proven": report.proven,
        "mode": report.mode,
    }
    if report.mode != "best-found":
        anchor.update(
            nodes_expanded=report.nodes_expanded,
            nodes_pruned_bound=report.nodes_pruned_bound,
            nodes_pruned_dominated=report.nodes_pruned_dominated,
            incumbent_updates=report.incumbent_updates,
        )
    payload = {
        "query": report.query,
        "n_relations": report.n_relations,
        "model": report.model,
        "exact": anchor,
        "methods": [
            {
                "method": row.method,
                "cost": row.cost,
                "gap": row.gap,
                "n_evaluations": row.n_evaluations,
            }
            for row in report.rows
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# The EXACT method (registered in repro.core.combinations)
# ----------------------------------------------------------------------


class ExactStrategy(Strategy):
    """Branch-and-bound as a first-class method behind ``optimize()``.

    Deterministic; the seed and the search run on the evaluator it is
    handed, so they charge its budget and record into the best/trajectory
    bookkeeping every other method uses, and a search the budget cuts
    short answers with the best order recorded.  Beyond
    :data:`DEFAULT_MAX_EXACT` relations it runs iterative improvement
    (II) on the same evaluator and random stream instead.
    """

    name = "EXACT"
    description = "exact branch-and-bound (II above 16 relations)"

    def run(
        self,
        evaluator: Evaluator,
        rng: random.Random,
        params: MethodParams,
    ) -> None:
        if evaluator.graph.n_relations > DEFAULT_MAX_EXACT:
            IterativeImprovementStrategy().run(evaluator, rng, params)
            return
        if not isinstance(evaluator, DeltaEvaluator):
            raise _refusal(evaluator.model)
        _search(evaluator, seed=0, allow_partial=True)
