"""The cost-model interface shared by both hash-join models.

A cost model prices one hash join given the operand and result sizes; plan
cost is the sum over the joins of an outer-linear tree, with intermediate
sizes supplied by the propagating
:class:`~repro.cost.cardinality.PlanEstimator`.  Cost models are pure:
budget accounting happens in :mod:`repro.core.state`, which wraps plan
evaluation with charging.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph
from repro.cost.cardinality import CostOverflowError, PlanEstimator
from repro.plans.join_order import JoinOrder

__all__ = ["CostModel", "CostOverflowError", "PlanCostDetail"]


@dataclass(frozen=True)
class PlanCostDetail:
    """Per-join breakdown of a plan's cost.

    ``join_costs[k]`` is the cost of the ``k``-th join (joining the relation
    at order position ``k + 1``); ``prefix_sizes[k]`` is the estimated size
    of the intermediate after that join.  ``prefix_costs`` are cumulative.
    """

    order: JoinOrder
    join_costs: tuple[float, ...]
    prefix_sizes: tuple[float, ...]

    @property
    def total(self) -> float:
        return sum(self.join_costs)

    @property
    def prefix_costs(self) -> tuple[float, ...]:
        cumulative: list[float] = []
        running = 0.0
        for cost in self.join_costs:
            running += cost
            cumulative.append(running)
        return tuple(cumulative)


class CostModel(ABC):
    """Prices hash joins.  Subclasses define :meth:`join_cost`."""

    name: str = "abstract"

    @abstractmethod
    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        """Cost of one hash join with the given estimated sizes."""

    def plan_cost(self, order: JoinOrder, graph: JoinGraph) -> float:
        """Total cost of the outer-linear plan given by ``order``.

        Raises :class:`CostOverflowError` if any join's cost (or the
        running total) leaves the finite float range — a symptom of a
        broken cost model or corrupted statistics, never of a merely
        expensive plan (cardinalities are clamped upstream).
        """
        estimator = PlanEstimator(graph, order[0])
        total = 0.0
        for position in range(1, len(order)):
            step = estimator.step(order[position])
            total += self.join_cost(
                step.outer_size, step.inner_size, step.result_size
            )
        if not math.isfinite(total):
            raise CostOverflowError(
                f"{self.name} cost model produced non-finite plan cost "
                f"{total!r} for order {order}"
            )
        return total

    def plan_cost_detail(self, order: JoinOrder, graph: JoinGraph) -> PlanCostDetail:
        """Like :meth:`plan_cost` but keeps the per-join breakdown."""
        estimator = PlanEstimator(graph, order[0])
        join_costs: list[float] = []
        prefix_sizes: list[float] = []
        for position in range(1, len(order)):
            step = estimator.step(order[position])
            cost = self.join_cost(
                step.outer_size, step.inner_size, step.result_size
            )
            if not math.isfinite(cost):
                raise CostOverflowError(
                    f"{self.name} cost model produced non-finite join cost "
                    f"{cost!r} at position {position} of {order}"
                )
            join_costs.append(cost)
            prefix_sizes.append(step.result_size)
        return PlanCostDetail(
            order=order,
            join_costs=tuple(join_costs),
            prefix_sizes=tuple(prefix_sizes),
        )

    def __str__(self) -> str:
        return self.name
