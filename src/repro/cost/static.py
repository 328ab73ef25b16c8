"""A wrapper disabling distinct-value propagation (the classic estimator).

The library's default estimator propagates distinct-value caps through
intermediate results (see :mod:`repro.cost.cardinality`), which makes a
plan's *suffix* cost depend on its prefix *order* — realistic, but it
breaks the Bellman principle that exact dynamic programming relies on
(two prefixes over the same relations can leave different caps behind).

:class:`StaticCostModel` wraps any cost model and prices plans under the
classic System-R estimator instead: every join's selectivity is the base
``J = 1/max(D_i, D_j)``, so intermediate sizes are determined by the
*set* of joined relations alone.  Estimated sizes are **not clamped** at
one tuple here — the clamp (kept in the propagating estimator) would
itself make sizes order-dependent and break subset-determinism.  In this
world subset DP is exact — which is why
:mod:`repro.core.dynamic_programming` uses it — and every other method
can be evaluated under the same wrapper for an apples-to-apples
optimality-gap measurement.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.cost.base import CostModel, CostOverflowError, PlanCostDetail
from repro.cost.cardinality import combined_selectivity
from repro.plans.join_order import JoinOrder


def _unclamped_result(
    outer_size: float,
    inner_size: float,
    predicates: Sequence[JoinPredicate],
) -> float:
    """Expected result size without the one-tuple floor.

    Clamping here would make sizes order-dependent and break the
    subset-determinism that exact DP relies on; overflow is instead
    rejected at the plan level, where ``plan_cost``/``plan_cost_detail``
    raise :class:`CostOverflowError` on any non-finite total.
    """
    # detlint: ignore[OVF001] -- deliberately unclamped for subset-determinism; plan_cost rejects non-finite totals
    return outer_size * inner_size * combined_selectivity(predicates)


class StaticCostModel(CostModel):
    """Prices plans with the wrapped model, sans distinct propagation."""

    def __init__(self, inner: CostModel) -> None:
        self.inner = inner
        self.name = f"static-{inner.name}"

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        return self.inner.join_cost(outer_size, inner_size, result_size)

    def plan_cost(self, order: JoinOrder, graph: JoinGraph) -> float:
        placed = [order[0]]
        outer_size = graph.cardinality(order[0])
        total = 0.0
        for position in range(1, len(order)):
            vertex = order[position]
            predicates = graph.edges_between(placed, vertex)
            inner_size = graph.cardinality(vertex)
            result = _unclamped_result(outer_size, inner_size, predicates)
            total += self.inner.join_cost(outer_size, inner_size, result)
            placed.append(vertex)
            outer_size = result
        if not math.isfinite(total):
            raise CostOverflowError(
                f"{self.name} cost model produced non-finite plan cost "
                f"{total!r} for order {order}"
            )
        return total

    def plan_cost_detail(self, order: JoinOrder, graph: JoinGraph) -> PlanCostDetail:
        placed = [order[0]]
        outer_size = graph.cardinality(order[0])
        join_costs: list[float] = []
        prefix_sizes: list[float] = []
        for position in range(1, len(order)):
            vertex = order[position]
            predicates = graph.edges_between(placed, vertex)
            inner_size = graph.cardinality(vertex)
            result = _unclamped_result(outer_size, inner_size, predicates)
            cost = self.inner.join_cost(outer_size, inner_size, result)
            if not math.isfinite(cost):
                raise CostOverflowError(
                    f"{self.name} cost model produced non-finite join cost "
                    f"{cost!r} at position {position} of {order}"
                )
            join_costs.append(cost)
            prefix_sizes.append(result)
            placed.append(vertex)
            outer_size = result
        return PlanCostDetail(
            order=order,
            join_costs=tuple(join_costs),
            prefix_sizes=tuple(prefix_sizes),
        )

    def __repr__(self) -> str:
        return f"StaticCostModel({self.inner!r})"
