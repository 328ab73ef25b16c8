"""Cardinality estimation with distinct-value propagation, and its cost step.

Joining relation ``j`` into an intermediate result ``S`` of size ``|S|``
yields an estimated

    |S ⋈ j| = |S| * N_j * prod(J'_ij  over predicates linking j to S)

with base join selectivity ``J_ij = 1 / max(D_i, D_j)``.

**Distinct-value propagation.**  A column of an intermediate result cannot
have more distinct values than the intermediate has tuples.  So when a
small intermediate is produced early, the distinct counts of all columns
it carries are *capped* at its size, and a later join through such a
column sees an **effective** selectivity

    J'_ij = 1 / max(min(D_i, cap_i), D_j)      >=  J_ij

where ``cap_i`` is the smallest intermediate size since relation ``i``
entered the plan.  This is the effect the paper leans on to explain why
the min-selectivity criterion wins its Table 1: consuming the
high-distinct (small ``J``) predicates early keeps distinct counts — and
hence sizes — small *throughout* the plan, while greedily minimising the
immediate result shrinks the caps and inflates every later join.

:func:`step` is that recurrence, one join at a time, over a
:class:`QueryContext`: ``plan_cost``, :func:`prefix_cardinalities`, the
join-tree builder and the exact branch-and-bound all fold it.  The
prefix-cached walk in :mod:`repro.cost.incremental` is the one other
copy; it derives caps from its cached sizes instead of carrying them.
"""

from __future__ import annotations

import math
from math import ceil
from typing import Sequence

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.cost.base import CostModel, CostOverflowError
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder

#: Ceiling on any estimated cardinality.  Chosen so that the product of two
#: clamped sizes (and hence any per-join cost term) still fits comfortably
#: in a float: 1e150 squared is 1e300 < DBL_MAX.  Estimates this large carry
#: no ordering information anyway — every plan that reaches the clamp is
#: equally hopeless.
MAX_CARDINALITY = 1e150


def clamp_cardinality(estimate: float, context: str = "estimate") -> float:
    """Clamp ``estimate`` into ``[1, MAX_CARDINALITY]``; reject non-finite.

    The lower clamp preserves the library-wide "at least one tuple"
    convention; the upper clamp keeps downstream arithmetic finite.  A NaN
    or infinite input means a statistic upstream was already corrupt, which
    clamping would mask — that raises :class:`CostOverflowError` instead.
    """
    if not math.isfinite(estimate):
        raise CostOverflowError(
            f"non-finite cardinality {context}: {estimate!r}"
        )
    if estimate > MAX_CARDINALITY:
        return MAX_CARDINALITY
    if estimate < 1.0:
        return 1.0
    return estimate


def combined_selectivity(predicates: Sequence[JoinPredicate]) -> float:
    """Product of base selectivities (1.0 when empty: a cross product)."""
    selectivity = 1.0
    for predicate in predicates:
        selectivity *= predicate.selectivity
    return selectivity


class QueryContext:
    """One query's catalog and cost model, precompiled for :func:`step`.

    ``adjacency[k]`` holds one ``(neighbor, distinct, floor)`` triple per
    edge, in ``graph.adjacency(k)`` order, so every selectivity product
    multiplies in one fixed order.  ``distinct`` is
    ``min(neighbor distinct, neighbor cardinality)``, the neighbor's cap
    before any join lowers it; ``floor`` is ``max(1.0, own distinct)``.

    Both stock models are compiled: the step and the incremental walk
    price their joins inline, replicating ``join_cost`` term for term,
    instead of calling it.  The check is on the exact type, because a
    subclass may override ``join_cost``; any other model is priced
    through its own method.
    """

    __slots__ = (
        "graph",
        "model",
        "n_relations",
        "cardinalities",
        "adjacency",
        "degrees",
        "join_cost",
        "_memory_constants",
        "_disk_constants",
    )

    def __init__(self, graph: JoinGraph, model: CostModel) -> None:
        self.graph = graph
        self.model = model
        n = graph.n_relations
        self.n_relations = n
        self.cardinalities = [graph.cardinality(i) for i in range(n)]
        self.adjacency: list[tuple[tuple[int, float, float], ...]] = []
        self.degrees: list[int] = []
        for relation in range(n):
            entries = []
            for neighbor, predicate in graph.adjacency(relation).items():
                if neighbor == predicate.left:
                    distinct = predicate.left_distinct
                    own = predicate.right_distinct
                else:
                    distinct = predicate.right_distinct
                    own = predicate.left_distinct
                entries.append((
                    neighbor,
                    min(distinct, self.cardinalities[neighbor]),
                    max(1.0, own),
                ))
            self.adjacency.append(tuple(entries))
            self.degrees.append(len(entries))
        self.join_cost = model.join_cost
        self._memory_constants: tuple[float, float, float] | None = None
        self._disk_constants: (
            tuple[float, int, float, float, list[float], list[float]] | None
        ) = None
        if type(model) is MainMemoryCostModel:
            self._memory_constants = (
                model.build_cost,
                model.probe_cost,
                model.output_cost,
            )
        elif type(model) is DiskCostModel:
            inner_pages, io_factors = model.inner_terms(self.cardinalities)
            self._disk_constants = (
                model.tuples_per_page,
                model.memory_pages,
                model.io_cost,
                model.cpu_weight,
                inner_pages,
                io_factors,
            )


class PrefixState:
    """The propagating walk's state after placing a prefix of relations.

    ``mask`` is the placed-relation bitmask (order-independent), ``size``
    the current intermediate-result cardinality, ``cost`` the cumulative
    plan cost so far.  ``caps`` holds the distinct-value cap of every
    *open* relation (placed, with predicates to unplaced ones) and
    ``unplaced`` its count of such predicates, keeping each step linear
    in the frontier size.  :func:`step` changes a state in place;
    :func:`extend_state` leaves it as it was.
    """

    __slots__ = ("mask", "size", "cost", "caps", "unplaced")

    def __init__(
        self,
        mask: int,
        size: float,
        cost: float,
        caps: dict[int, float],
        unplaced: dict[int, int],
    ) -> None:
        self.mask = mask
        self.size = size
        self.cost = cost
        self.caps = caps
        self.unplaced = unplaced


def start_state(context: QueryContext, first: int) -> PrefixState:
    """The state after placing ``first`` as the outermost relation."""
    size = clamp_cardinality(
        context.cardinalities[first], f"relation {first}"
    )
    caps: dict[int, float] = {}
    unplaced: dict[int, int] = {}
    degree = context.degrees[first]
    if degree:
        caps[first] = size
        unplaced[first] = degree
    return PrefixState(1 << first, size, 0.0, caps, unplaced)


def step(context: QueryContext, state: PrefixState, inner: int) -> None:
    """Join the unplaced relation ``inner`` into ``state``, in place.

    Lowers the caps, adds the join's cost, and raises
    :class:`CostOverflowError` when the result size is not finite.  A
    state that raised is left part-way through the step, so callers
    discard it.  The cost total is not checked here: ``plan_cost``
    rejects a non-finite one at its end.
    """
    mask = state.mask
    caps = state.caps
    unplaced = state.unplaced
    size = state.size
    selectivity = 1.0
    open_inner = 0
    for neighbor, distinct, floor in context.adjacency[inner]:
        if not (mask >> neighbor) & 1:
            open_inner += 1
            continue
        # A placed neighbor of an unplaced relation is open, so it has a cap.
        cap = caps[neighbor]
        if cap < distinct:
            distinct = cap
        selectivity *= 1.0 / (floor if floor > distinct else distinct)
        # The placed side of this predicate has one fewer unplaced edge.
        count = unplaced[neighbor] - 1
        if count:
            unplaced[neighbor] = count
        else:
            del unplaced[neighbor]
            del caps[neighbor]

    inner_size = context.cardinalities[inner]
    result = size * inner_size * selectivity
    if not (1.0 <= result <= MAX_CARDINALITY):
        # Slow path: clamp overflowing estimates, reject NaN/inf.
        result = clamp_cardinality(result, f"joining relation {inner}")

    if open_inner:
        unplaced[inner] = open_inner
        caps[inner] = inner_size if inner_size < result else result
    # The new intermediate caps every open column at its size.
    for relation, cap in caps.items():
        if cap > result:
            caps[relation] = result

    memory = context._memory_constants
    disk = context._disk_constants
    if memory is not None:
        build_cost, probe_cost, output_cost = memory
        cost = build_cost * inner_size + probe_cost * size + output_cost * result
    elif disk is not None:
        # DiskCostModel.join_cost, term for term.
        (
            tuples_per_page,
            memory_pages,
            io_cost,
            cpu_weight,
            inner_pages,
            io_factors,
        ) = disk
        outer_pages = float(ceil(size / tuples_per_page))
        if outer_pages < 1.0:
            outer_pages = 1.0
        result_pages = float(ceil(result / tuples_per_page))
        if result_pages < 1.0:
            result_pages = 1.0
        io = io_factors[inner] * (outer_pages + inner_pages[inner])
        if result_pages > memory_pages:
            io += 2 * result_pages
        cost = io_cost * io + cpu_weight * (size + inner_size + result)
    else:
        cost = context.join_cost(size, inner_size, result)
    state.mask = mask | (1 << inner)
    state.size = result
    state.cost += cost


def extend_state(
    context: QueryContext, state: PrefixState, inner: int
) -> PrefixState:
    """A copy of ``state`` with ``inner`` joined next; ``state`` is kept.

    For the branch-and-bound frontier, whose entries share a parent.
    """
    child = PrefixState(
        state.mask, state.size, state.cost,
        state.caps.copy(), state.unplaced.copy(),
    )
    step(context, child, inner)
    return child


def prefix_cardinalities(order: JoinOrder, graph: JoinGraph) -> list[float]:
    """Estimated sizes of every prefix of the order (with propagation).

    Element 0 is the first relation's cardinality; element ``k`` is the
    intermediate after ``k`` joins.  The list has ``len(order)`` entries.
    """
    # Sizes do not depend on the cost model; any one compiles the table.
    context = QueryContext(graph, MainMemoryCostModel())
    state = start_state(context, order[0])
    sizes = [state.size]
    for position in range(1, len(order)):
        step(context, state, order[position])
        sizes.append(state.size)
    return sizes
