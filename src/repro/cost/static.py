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
itself make sizes order-dependent and break subset-determinism; overflow
is instead rejected at the plan level, where ``plan_cost`` raises
:class:`CostOverflowError` on any non-finite total.  Bushy trees are
sized the same way (:mod:`repro.plans.bushy`), so linear plans searched
under this wrapper and bushy trees are priced alike.  The exact search
refuses it: it folds the propagating step, not this one.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.catalog.join_graph import JoinGraph
from repro.cost.base import CostModel, CostOverflowError
from repro.cost.cardinality import combined_selectivity
from repro.plans.join_order import JoinOrder


class StaticCostModel(CostModel):
    """Prices plans with the wrapped model, sans distinct propagation."""

    def __init__(self, inner: CostModel) -> None:
        self.inner = inner
        self.name = f"static-{inner.name}"

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        return self.inner.join_cost(outer_size, inner_size, result_size)

    def step(
        self,
        graph: JoinGraph,
        placed: Sequence[int],
        size: float,
        vertex: int,
    ) -> tuple[float, float]:
        """``(result size, join cost)`` of joining ``vertex`` next.

        ``placed`` lists the relations joined so far, in order, and
        ``size`` is their intermediate's size; the selectivity product
        follows ``placed``'s order.
        """
        inner_size = graph.cardinality(vertex)
        result = size * inner_size * combined_selectivity(
            graph.edges_between(placed, vertex)
        )
        return result, self.inner.join_cost(size, inner_size, result)

    def plan_cost(self, order: JoinOrder, graph: JoinGraph) -> float:
        positions = order.positions
        size = graph.cardinality(positions[0])
        total = 0.0
        for position in range(1, len(positions)):
            size, cost = self.step(
                graph, positions[:position], size, positions[position]
            )
            total += cost
        if not math.isfinite(total):
            raise CostOverflowError(
                f"{self.name} cost model produced non-finite plan cost "
                f"{total!r} for order {order}"
            )
        return total

    def __repr__(self) -> str:
        return f"StaticCostModel({self.inner!r})"
