"""Exact branch-and-bound join ordering under the true cost models.

:mod:`repro.core.dynamic_programming` is exact only under the *static*
estimator: distinct-value propagation makes a plan's suffix cost depend
on its prefix order, which breaks the Bellman principle subset DP needs.
This module closes that gap with a memoized best-first branch-and-bound
over left-deep orders that searches **prefixes**, not subsets, and so is
exact under the propagating estimator the rest of the library actually
optimizes for (and, through a second engine, under
:class:`~repro.cost.static.StaticCostModel` too).

Design (and why the result is *bitwise* minimal, not merely
mathematically minimal — the differential suite in
``tests/test_core_exact.py`` compares against exhaustive enumeration
with ``==``):

* **Cost chains replicate the estimator op for op.**  Prefixes are
  extended through :func:`repro.cost.incremental.extend_state` (the
  incremental evaluator's step arithmetic) or the static model's own
  per-step expressions, so a completed chain's cost is the identical
  float ``plan_cost`` returns for that order.
* **Pruning uses only the running prefix cost.**  A node is discarded
  when its accumulated cost ``g`` already reaches the incumbent: join
  costs are non-negative, and float addition of non-negative terms is
  monotone, so every completion of the node computes a total ``>= g``
  *in float arithmetic*.  The admissible-looking remainder estimate
  ``h`` (each unplaced relation's cheapest conceivable join) orders the
  frontier — best-first — but is never used to prune, because ``g + h``
  re-associates the final sum and could exceed a completion's computed
  total by an ulp near ties.
* **Dominance memoization, propagating engine only.**  Two prefixes over
  the same relation set are compared componentwise, by a test written
  inline in :func:`_branch_and_bound`'s expansion loop; a dominated
  prefix cannot complete cheaper, bitwise, because every downstream
  operation is float-monotone in the dominated components.  The static
  engine walks the placed *list* in order (its per-step selectivities
  are not mask-determined), so it runs without dominance.
* **Disconnected graphs are searched natively**: the branching rule is
  exactly :func:`repro.plans.validity.first_invalid_position`'s — finish
  the open component before starting another — so the search space *is*
  the valid-order space and cross products never appear mid-component.

The frontier is seeded with the greedy order.  KBZ and augmentation
incumbents polished by a short iterative-improvement descent join it
only when the budget cannot cover the search's worst case: a search
sure to complete expands the same nodes from any incumbent (best-first
on an admissible floor), so there they could only add work.
Feasibility: exhaustive enumeration dies around 10 relations; the
branch-and-bound is comfortable to N≈15–18 depending on graph shape (see
``docs/exact.md`` and ``benchmarks/test_perf_exact.py``).  Beyond the
frontier, :func:`hybrid_optimum` contracts the graph to a small cluster
skeleton, solves the skeleton and the cluster interiors exactly,
expands, and polishes with the existing II machinery — a
certified-*construction* (not certified-optimal) mode, reported with
``proven=False``.

The optimality-gap surface (:func:`optimality_gap`,
:func:`build_gap_report`, :func:`gap_report_json`) turns any
``compare_methods`` result mapping into *true cost / exact optimum*
ratios with a byte-stable JSON rendering; the CLI's ``repro gap`` and
``repro compare --gap`` are thin wrappers over it.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Mapping

from repro.catalog.join_graph import JoinGraph, Query
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.budget import Budget, BudgetExhausted, DEFAULT_UNITS_PER_N2
from repro.core.combinations import MethodParams, Strategy
from repro.core.iterative import improvement_run
from repro.core.moves import MoveSet
from repro.core.optimizer import postpone_cross_products
from repro.core.state import Evaluation, Evaluator, make_evaluator
from repro.cost.base import CostModel
from repro.cost.bounds import lower_bound
from repro.cost.cardinality import (
    MAX_CARDINALITY,
    CostOverflowError,
    combined_selectivity,
)
from repro.cost.incremental import (
    PrefixState,
    QueryContext,
    extend_state,
    start_state,
    supports_incremental,
)
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.obs import events as obs_events
from repro.obs.tracer import Tracer, as_tracer
from repro.plans.join_order import JoinOrder
from repro.plans.validity import (
    deterministic_fallback_order,
    first_invalid_position,
    random_valid_order,
)
from repro.utils.rng import derive_rng

__all__ = [
    "DEFAULT_MAX_EXACT",
    "ExactResult",
    "ExactStrategy",
    "GapReport",
    "GapRow",
    "build_gap_report",
    "exact_feasible",
    "exact_optimum",
    "gap_report_json",
    "hybrid_optimum",
    "optimality_gap",
]

#: Relation-count ceiling for the pure branch-and-bound entry point.
#: Chosen from the feasibility measurements in BENCH_exact.json: chains
#: and stars stay sub-second well past this, dense cyclic graphs start
#: to strain around it.
DEFAULT_MAX_EXACT = 16

#: Budget units charged per node extension — one join-cost evaluation,
#: the same unit every other method's accounting is denominated in.
_EXTEND_CHARGE = 1.0

_MODE_BNB = "branch-and-bound"
_MODE_HYBRID = "hybrid"

#: Restart cap for the hybrid polish phase — the budget is the real
#: governor; this only keeps an unlimited budget from looping forever.
_MAX_POLISH_RESTARTS = 256


@dataclass(frozen=True)
class ExactResult:
    """Outcome of an exact (or hybrid) optimization pass.

    ``proven`` distinguishes a certificate of optimality (the search ran
    to completion) from a best-effort answer (budget expired with
    ``allow_partial``, or hybrid mode, which never proves anything about
    the full graph).  ``cost`` is always the true ``plan_cost`` of
    ``order`` under the model searched — bitwise.
    """

    order: JoinOrder
    cost: float
    proven: bool
    mode: str
    n_relations: int
    nodes_expanded: int
    nodes_pruned_bound: int
    nodes_pruned_dominated: int
    incumbent_updates: int
    n_cost_evaluations: int
    units_spent: float
    lower_bound: float


# ----------------------------------------------------------------------
# Search engines: one per cost-model semantics
# ----------------------------------------------------------------------


class _StaticState:
    """Prefix state of the static (non-propagating) walk."""

    __slots__ = ("mask", "size", "cost")

    def __init__(self, mask: int, size: float, cost: float) -> None:
        self.mask = mask
        self.size = size
        self.cost = cost


class _PropagatingEngine:
    """Extends prefixes with the propagating estimator's arithmetic."""

    #: Componentwise dominance is bitwise-sound here (see module doc).
    dominance = True

    def __init__(self, graph: JoinGraph, model: CostModel) -> None:
        self._context = QueryContext(graph, model)

    def start(self, first: int) -> PrefixState:
        return start_state(self._context, first)

    def extend(
        self, order: tuple[int, ...], state: Any, vertex: int
    ) -> PrefixState:
        return extend_state(self._context, state, vertex)


class _StaticEngine:
    """Extends prefixes with :class:`StaticCostModel`'s arithmetic.

    The static walk reads the placed *list* in order
    (``graph.edges_between(placed, vertex)``), so the per-step
    expressions here consume the node's order tuple — same calls, same
    sequence, bitwise-identical totals to ``StaticCostModel.plan_cost``.
    No dominance: static sizes are subset-determined mathematically but
    their float values are path-dependent (selectivity products multiply
    in placed-list order), so only the airtight ``g``-prune applies.
    """

    dominance = False

    def __init__(self, graph: JoinGraph, model: StaticCostModel) -> None:
        self._graph = graph
        self._model = model

    def start(self, first: int) -> _StaticState:
        return _StaticState(
            1 << first, self._graph.cardinality(first), 0.0
        )

    def extend(
        self, order: tuple[int, ...], state: Any, vertex: int
    ) -> _StaticState:
        graph = self._graph
        predicates = graph.edges_between(order, vertex)
        inner_size = graph.cardinality(vertex)
        result = state.size * inner_size * combined_selectivity(predicates)
        cost = state.cost + self._model.inner.join_cost(
            state.size, inner_size, result
        )
        return _StaticState(state.mask | (1 << vertex), result, cost)


def _engine_for(
    graph: JoinGraph, model: CostModel
) -> "_PropagatingEngine | _StaticEngine":
    if supports_incremental(model):
        return _PropagatingEngine(graph, model)
    if isinstance(model, StaticCostModel):
        return _StaticEngine(graph, model)
    raise ValueError(
        f"cost model {model!r} overrides plan_cost with semantics the "
        "exact search cannot replicate; use the base propagating models "
        "or StaticCostModel"
    )


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
    overflowed: int = 0

    def add(self, result: ExactResult) -> None:
        """Count a hybrid sub-solve's search into these totals."""
        self.nodes_expanded += result.nodes_expanded
        self.pruned_bound += result.nodes_pruned_bound
        self.pruned_dominated += result.nodes_pruned_dominated
        self.incumbent_updates += result.incumbent_updates
        self.n_cost_evaluations += result.n_cost_evaluations

    def hybrid_result(
        self,
        order: JoinOrder,
        cost: float,
        graph: JoinGraph,
        model: CostModel,
        units_spent: float,
    ) -> ExactResult:
        """A hybrid answer over ``graph``, carrying these totals."""
        return ExactResult(
            order=order,
            cost=cost,
            proven=False,
            mode=_MODE_HYBRID,
            n_relations=graph.n_relations,
            nodes_expanded=self.nodes_expanded,
            nodes_pruned_bound=self.pruned_bound,
            nodes_pruned_dominated=self.pruned_dominated,
            incumbent_updates=self.incumbent_updates,
            n_cost_evaluations=self.n_cost_evaluations,
            units_spent=units_spent,
            lower_bound=lower_bound(graph, model),
        )


def _search_worst_case(n: int) -> int:
    """Most extensions the branch-and-bound can charge over ``n`` relations.

    One per ordered prefix of two or more relations.
    """
    return sum(math.perm(n, k) for k in range(2, n + 1))


def _seed_incumbent(
    graph: JoinGraph,
    model: CostModel,
    budget: Budget,
    seed: int,
    tracer: Tracer,
) -> tuple[Evaluation | None, int]:
    """Evaluate the greedy order, plus heuristic starts polished by II.

    The KBZ and augmentation starts and the polish run only when the
    budget cannot cover the search's worst case, where the incumbent may
    be the answer.  Returns the best evaluation found (``None`` only when
    the budget expired before the first one completed) and the number of
    join-cost evaluations spent.  All costs come from full evaluator
    walks, so the incumbent's cost is bitwise comparable with the
    search's own chains.
    """
    n = graph.n_relations
    evaluator = make_evaluator(graph, model, budget)
    evaluator.tracer = tracer
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
    joins = getattr(
        evaluator, "n_joins_evaluated",
        evaluator.n_evaluations * graph.n_joins,
    )
    return evaluator.best, int(joins)


def _branch_and_bound(
    graph: JoinGraph,
    model: CostModel,
    engine: "_PropagatingEngine | _StaticEngine",
    budget: Budget,
    incumbent: Evaluation | None,
    tracer: Tracer,
    stats: _SearchStats,
) -> tuple[tuple[int, ...] | None, float]:
    """Best-first search over valid prefixes; returns (order, cost).

    Raises :class:`BudgetExhausted` mid-search (the caller decides
    whether the incumbent reached so far is an acceptable answer) and
    returns ``(None, inf)`` only when every valid order overflowed.
    """
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
    # result collapsed to one tuple).  Ordering only — never pruning.
    floors: list[float] = []
    for vertex in range(n):
        try:
            floor = model.join_cost(1.0, graph.cardinality(vertex), 1.0)
        # boundary: a model that cannot even price the floor join forfeits
        # the heuristic ordering for this relation, nothing else.
        except (OverflowError, ValueError):
            floor = 0.0
        floors.append(floor if math.isfinite(floor) else 0.0)
    total_floor = sum(floors)

    best_cost = math.inf
    best_order: tuple[int, ...] | None = None
    if incumbent is not None:
        best_cost = incumbent.cost
        best_order = incumbent.order.positions

    counter = 0
    # Heap entries: (priority, insertion counter, order, state, h,
    # adjacency mask of the placed set).  The counter makes equal
    # priorities pop in insertion order — fully deterministic.
    heap: list[tuple[float, int, tuple[int, ...], Any, float, int]] = []
    store: dict[int, list[PrefixState]] = {}
    use_dominance = engine.dominance
    for first in range(n):
        state = engine.start(first)
        h = total_floor - floors[first]
        heapq.heappush(
            heap, (state.cost + h, counter, (first,), state, h, neighbor_masks[first])
        )
        counter += 1
        if use_dominance:
            store[state.mask] = [state]

    while heap:
        _, _, order, state, h, adjacent = heapq.heappop(heap)
        if state.cost >= best_cost:
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
                child = engine.extend(order, state, vertex)
            # boundary: an overflowing prefix means every completion of
            # it overflows too (the walk is prefix-deterministic), i.e.
            # plan_cost raises for all of them — the branch holds no
            # finite-cost orders to find.
            except (CostOverflowError, OverflowError):
                stats.overflowed += 1
                continue
            if not math.isfinite(child.cost):
                stats.overflowed += 1
                continue
            if child.cost >= best_cost:
                stats.pruned_bound += 1
                continue
            child_mask = child.mask
            if child_mask == full:
                best_cost = child.cost
                best_order = order + (vertex,)
                stats.incumbent_updates += 1
                if tracer.enabled:
                    tracer.emit(obs_events.BEST, cost=child.cost)
                continue
            if use_dominance:
                # A kept prefix over the same relations with no larger cost
                # or size and no smaller caps completes every suffix at no
                # higher cost, bitwise: the walk is float-monotone in each
                # (caps clamp through min in a fixed adjacency order, sizes
                # multiply by positive factors, and both stock join costs
                # rise with outer and result size).  Equal masks give equal
                # cap key sets; the key checks only guard that.
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
            child_h = h - floors[vertex]
            heapq.heappush(
                heap,
                (
                    child.cost + child_h,
                    counter,
                    order + (vertex,),
                    child,
                    child_h,
                    adjacent | neighbor_masks[vertex],
                ),
            )
            counter += 1
    return best_order, best_cost


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _flush_trace(tracer: Tracer, sink: str | None) -> None:
    """Write the trace file when the caller asked for one by path."""
    if sink is None:
        return
    from repro.obs.writer import write_trace

    write_trace(getattr(tracer, "events", []), sink)


def exact_feasible(
    graph: JoinGraph, max_relations: int = DEFAULT_MAX_EXACT
) -> bool:
    """Whether the pure branch-and-bound is admissible for this graph."""
    return graph.n_relations <= max_relations


def exact_optimum(
    query: Query | JoinGraph,
    model: CostModel | None = None,
    *,
    budget: Budget | None = None,
    max_relations: int = DEFAULT_MAX_EXACT,
    seed: int = 0,
    allow_partial: bool = False,
    trace: Tracer | str | None = None,
) -> ExactResult:
    """The provably cheapest valid outer-linear order under ``model``.

    Works on connected and disconnected graphs alike (the branching rule
    enumerates exactly the valid orders).  ``budget`` is charged one
    unit per join-cost evaluation; on exhaustion the search raises
    :class:`BudgetExhausted` unless ``allow_partial`` is set, in which
    case the best incumbent found so far is returned with
    ``proven=False`` (still raising when not even one order completed).
    ``max_relations`` guards against accidentally launching an
    exponential search — raise it explicitly, or use
    :func:`hybrid_optimum` past the feasibility frontier.
    """
    graph = query.graph if isinstance(query, Query) else query
    if model is None:
        model = MainMemoryCostModel()
    n = graph.n_relations
    if n > max_relations:
        raise ValueError(
            f"exact search over {n} relations exceeds max_relations="
            f"{max_relations}; raise it explicitly or use hybrid_optimum"
        )
    engine = _engine_for(graph, model)
    tracer, sink = as_tracer(trace)
    if budget is None:
        budget = Budget.unlimited()
    if sink is not None:
        # We own this tracer (a path was passed); stamp its events with
        # this search's own logical clock.  A caller-owned tracer keeps
        # whatever clock its owner bound.
        tracer.bind_clock(budget)
    bound = lower_bound(graph, model)
    if n == 1:
        _flush_trace(tracer, sink)
        return ExactResult(
            order=JoinOrder([0]),
            cost=0.0,
            proven=True,
            mode=_MODE_BNB,
            n_relations=1,
            nodes_expanded=0,
            nodes_pruned_bound=0,
            nodes_pruned_dominated=0,
            incumbent_updates=0,
            n_cost_evaluations=0,
            units_spent=budget.spent,
            lower_bound=bound,
        )

    stats = _SearchStats()
    if tracer.enabled:
        tracer.phase_start("exact_seed")
    incumbent, seed_joins = _seed_incumbent(graph, model, budget, seed, tracer)
    stats.n_cost_evaluations += seed_joins
    if tracer.enabled:
        tracer.phase_end("exact_seed")
        tracer.phase_start("exact_bnb")
    proven = True
    try:
        best_order, best_cost = _branch_and_bound(
            graph, model, engine, budget, incumbent, tracer, stats
        )
    except BudgetExhausted:
        if not allow_partial or incumbent is None:
            if tracer.enabled:
                tracer.phase_end("exact_bnb")
            raise
        best_order, best_cost = incumbent.order.positions, incumbent.cost
        proven = False
    if tracer.enabled:
        tracer.phase_end("exact_bnb")
        metrics = tracer.metrics
        metrics.inc("exact_nodes_expanded", float(stats.nodes_expanded))
        metrics.inc("exact_nodes_pruned_bound", float(stats.pruned_bound))
        metrics.inc(
            "exact_nodes_pruned_dominated", float(stats.pruned_dominated)
        )
        metrics.inc(
            "exact_incumbent_updates", float(stats.incumbent_updates)
        )
    if best_order is None:
        raise CostOverflowError(
            f"every valid order of {n} relations overflows under "
            f"{model.name}; no finite-cost exact optimum exists"
        )
    _flush_trace(tracer, sink)
    return ExactResult(
        order=JoinOrder(best_order),
        cost=best_cost,
        proven=proven,
        mode=_MODE_BNB,
        n_relations=n,
        nodes_expanded=stats.nodes_expanded,
        nodes_pruned_bound=stats.pruned_bound,
        nodes_pruned_dominated=stats.pruned_dominated,
        incumbent_updates=stats.incumbent_updates,
        n_cost_evaluations=stats.n_cost_evaluations,
        units_spent=budget.spent,
        lower_bound=bound,
    )


# ----------------------------------------------------------------------
# Hybrid mode: contract, solve exactly, expand, polish
# ----------------------------------------------------------------------


def _contract_clusters(
    graph: JoinGraph, max_clusters: int, cluster_cap: int
) -> list[list[int]]:
    """Partition vertices into ≤ ``max_clusters`` connected clusters.

    Greedy edge contraction: repeatedly merge the adjacent cluster pair
    whose estimated join size (static, independence) is smallest — the
    most tightly joined pair, whose relative order the skeleton solve
    would get least wrong.  Deterministic tie-breaks on cluster indices;
    ``cluster_cap`` bounds cluster size so the interiors stay exactly
    solvable (relaxed, doubling, when it wedges the contraction).
    """
    n = graph.n_relations
    clusters: dict[int, list[int]] = {v: [v] for v in range(n)}
    sizes: dict[int, float] = {
        v: float(graph.cardinality(v)) for v in range(n)
    }
    selectivities: dict[tuple[int, int], float] = {}
    for predicate in graph.predicates:
        a, b = predicate.left, predicate.right
        key = (a, b) if a < b else (b, a)
        selectivities[key] = (
            selectivities.get(key, 1.0) * predicate.selectivity
        )
    cap = cluster_cap
    while len(clusters) > max_clusters and selectivities:
        best: tuple[float, int, int] | None = None
        for (a, b), joint in selectivities.items():
            if len(clusters[a]) + len(clusters[b]) > cap:
                continue
            estimate = sizes[a] * sizes[b] * joint
            if not math.isfinite(estimate):
                estimate = MAX_CARDINALITY
            candidate = (estimate, a, b)
            if best is None or candidate < best:
                best = candidate
        if best is None:
            # Every adjacent pair exceeds the cap: relax it so the
            # contraction always terminates (oversized interiors fall
            # back to greedy ordering downstream).
            cap *= 2
            continue
        _, a, b = best
        clusters[a].extend(clusters[b])
        clusters[a].sort()
        merged_size = sizes[a] * sizes[b] * selectivities.pop((a, b))
        sizes[a] = min(max(merged_size, 1.0), MAX_CARDINALITY)
        del clusters[b]
        del sizes[b]
        for key in sorted(selectivities):
            if b not in key:
                continue
            other = key[0] if key[1] == b else key[1]
            joint = selectivities.pop(key)
            if other == a:
                continue
            new_key = (a, other) if a < other else (other, a)
            selectivities[new_key] = (
                selectivities.get(new_key, 1.0) * joint
            )
    return [clusters[root] for root in sorted(clusters)]


def _contracted_graph(
    graph: JoinGraph, clusters: list[list[int]]
) -> JoinGraph:
    """A join graph whose relations are the clusters.

    Cluster cardinalities are static size estimates of their interior
    joins; inter-cluster selectivities are the products of the crossing
    predicates', encoded as symmetric distinct counts ``1/s``.  Built
    with ``validate=False``: these are derived quantities, not catalog
    statistics, and may legitimately violate the catalog sanity checks.
    """
    cluster_of: dict[int, int] = {}
    for index, members in enumerate(clusters):
        for vertex in members:
            cluster_of[vertex] = index
    sizes: list[float] = []
    for members in clusters:
        size = float(graph.cardinality(members[0]))
        placed = [members[0]]
        for vertex in members[1:]:
            predicates = graph.edges_between(placed, vertex)
            size = size * graph.cardinality(vertex) * combined_selectivity(
                predicates
            )
            placed.append(vertex)
        sizes.append(min(max(size, 1.0), 1e15))
    relations = [
        Relation(f"cluster{index}", max(1, int(size)))
        for index, size in enumerate(sizes)
    ]
    crossing: dict[tuple[int, int], float] = {}
    for predicate in graph.predicates:
        a = cluster_of[predicate.left]
        b = cluster_of[predicate.right]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        crossing[key] = crossing.get(key, 1.0) * predicate.selectivity
    predicates = []
    for (a, b) in sorted(crossing):
        distinct = max(1.0, 1.0 / crossing[(a, b)])
        predicates.append(JoinPredicate(a, b, distinct, distinct))
    return JoinGraph(relations, predicates, validate=False)


def _expand_skeleton(
    graph: JoinGraph,
    clusters: list[list[int]],
    skeleton_order: tuple[int, ...],
    local_orders: list[tuple[int, ...]],
) -> JoinOrder:
    """Interleave cluster-local orders along the skeleton order.

    Clusters are visited in skeleton order; within the active cluster,
    the next relation is the lowest-local-rank member adjacent to what
    is already placed (always exists: clusters are edge-connected and,
    after the first, the skeleton guarantees a crossing edge), so the
    result is a valid order by construction.
    """
    placed: list[int] = []
    placed_set: set[int] = set()
    for cluster_index in skeleton_order:
        local = local_orders[cluster_index]
        rank = {vertex: position for position, vertex in enumerate(local)}
        remaining = list(local)
        while remaining:
            if not placed:
                pick = remaining[0]
            else:
                frontier = [
                    vertex
                    for vertex in remaining
                    if any(u in placed_set for u in graph.neighbors(vertex))
                ]
                pool = frontier if frontier else remaining
                pick = min(pool, key=lambda vertex: (rank[vertex], vertex))
            placed.append(pick)
            placed_set.add(pick)
            remaining.remove(pick)
    return JoinOrder(placed)


def hybrid_optimum(
    query: Query | JoinGraph,
    model: CostModel | None = None,
    *,
    budget: Budget | None = None,
    max_exact: int = DEFAULT_MAX_EXACT,
    seed: int = 0,
    time_factor: float = 3.0,
    units_per_n2: float = DEFAULT_UNITS_PER_N2,
    trace: Tracer | str | None = None,
) -> ExactResult:
    """Exact where feasible, contracted-skeleton + polish beyond.

    At or below ``max_exact`` relations this *is* :func:`exact_optimum`.
    Beyond it, the graph is contracted to ``max_exact`` clusters of at
    most ``max_exact`` relations each, the cluster skeleton and each
    cluster interior are solved exactly, the orders are interleaved into
    a full valid order, and a budgeted iterative-improvement descent
    polishes it — ``proven`` is then always False.  A disconnected graph
    goes through :func:`~repro.core.optimizer.postpone_cross_products`,
    each component recursing here on its share of the budget.
    """
    graph = query.graph if isinstance(query, Query) else query
    if model is None:
        model = MainMemoryCostModel()
    n = graph.n_relations
    tracer, sink = as_tracer(trace)
    if budget is None:
        budget = Budget.for_query(
            max(1, graph.n_joins), time_factor, units_per_n2
        )
    if sink is not None:
        tracer.bind_clock(budget)
    if n <= max_exact:
        result = exact_optimum(
            graph,
            model,
            budget=budget,
            max_relations=max_exact,
            seed=seed,
            allow_partial=True,
            trace=tracer,
        )
        _flush_trace(tracer, sink)
        return result

    if not graph.is_connected:
        totals = _SearchStats()

        def solve(
            component: tuple[int, ...], subgraph: JoinGraph, share: Budget
        ) -> JoinOrder:
            piece = hybrid_optimum(
                subgraph,
                model,
                budget=share,
                max_exact=max_exact,
                seed=seed,
                trace=tracer,
            )
            totals.add(piece)
            return piece.order

        order = postpone_cross_products(graph, budget, solve)
        cost = model.plan_cost(order, graph)
        _flush_trace(tracer, sink)
        return totals.hybrid_result(order, cost, graph, model, budget.spent)

    if tracer.enabled:
        tracer.phase_start("hybrid_contract")
    clusters = _contract_clusters(graph, max_exact, max_exact)
    contracted = _contracted_graph(graph, clusters)
    if tracer.enabled:
        tracer.phase_end("hybrid_contract")

    totals = _SearchStats()

    def _exact_order(target: JoinGraph, fraction: float) -> tuple[int, ...]:
        share = budget.share(fraction, 1)
        try:
            result = exact_optimum(
                target,
                model,
                budget=share,
                max_relations=target.n_relations,
                seed=seed,
                allow_partial=True,
                trace=tracer,
            )
        # boundary: a starved or overflowing sub-solve falls back to the
        # greedy order — hybrid mode promises a valid construction, not
        # a certificate (proven=False either way).
        except (BudgetExhausted, CostOverflowError, OverflowError):
            return deterministic_fallback_order(target).positions
        finally:
            budget.spent = min(budget.limit, budget.spent + share.spent)
        totals.add(result)
        return result.order.positions

    skeleton_order = _exact_order(contracted, 0.3)
    local_orders: list[tuple[int, ...]] = []
    interior = sum(len(members) for members in clusters if len(members) > 1)
    for members in clusters:
        if len(members) == 1:
            local_orders.append((members[0],))
            continue
        subgraph = graph.subgraph(members)
        if subgraph.n_relations > max_exact or not subgraph.is_connected:
            local = deterministic_fallback_order(subgraph).positions
        else:
            local = _exact_order(
                subgraph, 0.4 * len(members) / max(1, interior)
            )
        local_orders.append(
            tuple(members[position] for position in local)
        )
    start = _expand_skeleton(graph, clusters, skeleton_order, local_orders)
    invalid = first_invalid_position(start, graph)
    if invalid is not None:
        raise RuntimeError(
            f"hybrid expansion produced an invalid order at position "
            f"{invalid}: {start}"
        )

    evaluator = make_evaluator(graph, model, budget)
    evaluator.tracer = tracer
    if tracer.enabled:
        tracer.phase_start("hybrid_polish")
    rng = derive_rng(seed, "exact", "hybrid-polish", n)
    try:
        start_cost = evaluator.evaluate(start)
        improvement_run(
            start, evaluator, MoveSet(), rng, start_cost=start_cost
        )
        # Spend whatever budget remains on II restarts (bounded, so an
        # unlimited budget cannot spin forever).  A unit budget stops
        # short of a restart it cannot finish; a wall clock runs them
        # until its deadline.
        for _ in range(_MAX_POLISH_RESTARTS):
            if (
                math.isfinite(budget.limit)
                and budget.remaining < 2.0 * graph.n_joins
            ):
                break
            improvement_run(
                random_valid_order(graph, rng), evaluator, MoveSet(), rng
            )
    # boundary: polish is strictly opportunistic; the expanded order is
    # already a complete valid answer.
    except (BudgetExhausted, CostOverflowError, OverflowError):
        pass
    if tracer.enabled:
        tracer.phase_end("hybrid_polish")
    best = evaluator.best
    if best is None:
        # Budget died before even the start order was priced.
        best = Evaluation(start, model.plan_cost(start, graph))
    totals.n_cost_evaluations += int(
        getattr(
            evaluator, "n_joins_evaluated",
            evaluator.n_evaluations * graph.n_joins,
        )
    )
    _flush_trace(tracer, sink)
    return totals.hybrid_result(
        best.order, best.cost, graph, model, budget.spent
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

    ``proven`` is the exact pass's flag: when False (partial budget or
    hybrid mode) the "gaps" are ratios to the best *known* cost, and
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
    exact: ExactResult,
) -> GapReport:
    """Anchor a ``compare_methods`` result mapping to an exact result.

    Rows are sorted by (cost, method) — deterministic, and identical for
    any ``workers`` count because both inputs are (the comparison is
    bit-identical across worker counts and the exact pass runs in the
    parent process).
    """
    graph = query.graph if isinstance(query, Query) else query
    name = query.name if isinstance(query, Query) else "adhoc"
    rows = [
        GapRow(
            method=method,
            cost=result.cost,
            gap=optimality_gap(result.cost, exact.cost),
            n_evaluations=result.n_evaluations,
        )
        for method, result in results.items()
    ]
    rows.sort(key=lambda row: (row.cost, row.method))
    return GapReport(
        query=name,
        n_relations=graph.n_relations,
        model=model.name,
        exact_cost=exact.cost,
        exact_order=exact.order.positions,
        proven=exact.proven,
        mode=exact.mode,
        nodes_expanded=exact.nodes_expanded,
        nodes_pruned_bound=exact.nodes_pruned_bound,
        nodes_pruned_dominated=exact.nodes_pruned_dominated,
        incumbent_updates=exact.incumbent_updates,
        rows=tuple(rows),
    )


def gap_report_json(report: GapReport) -> str:
    """Canonical byte-stable JSON rendering of a gap report."""
    payload = {
        "query": report.query,
        "n_relations": report.n_relations,
        "model": report.model,
        "exact": {
            "cost": report.exact_cost,
            "order": list(report.exact_order),
            "proven": report.proven,
            "mode": report.mode,
            "nodes_expanded": report.nodes_expanded,
            "nodes_pruned_bound": report.nodes_pruned_bound,
            "nodes_pruned_dominated": report.nodes_pruned_dominated,
            "incumbent_updates": report.incumbent_updates,
        },
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

    Deterministic; spends the evaluator's budget on the search, held
    back (:meth:`~repro.core.budget.Budget.hold_back`) by what pricing
    the answer through the evaluator costs: that records it into the
    best/trajectory bookkeeping every other method uses.  Beyond
    :data:`DEFAULT_MAX_EXACT` relations it transparently degrades to
    :func:`hybrid_optimum`.
    """

    name = "EXACT"
    description = "exact branch-and-bound (hybrid contraction at large N)"
    stochastic = False
    max_exact = DEFAULT_MAX_EXACT

    def run(
        self,
        evaluator: Evaluator,
        rng: random.Random,
        params: MethodParams,
    ) -> None:
        graph = evaluator.graph
        budget = evaluator.budget
        sub = budget.hold_back(float(max(1, graph.n_joins)))
        try:
            if graph.n_relations <= self.max_exact:
                result = exact_optimum(
                    graph,
                    evaluator.model,
                    budget=sub,
                    max_relations=self.max_exact,
                    allow_partial=True,
                    trace=evaluator.tracer,
                )
            else:
                result = hybrid_optimum(
                    graph,
                    evaluator.model,
                    budget=sub,
                    max_exact=self.max_exact,
                    trace=evaluator.tracer,
                )
        finally:
            budget.spent = min(budget.limit, budget.spent + sub.spent)
        evaluator.evaluate(result.order)
