"""The cost-model interface shared by both hash-join models.

A cost model prices one hash join given the operand and result sizes; plan
cost is the sum over the joins of an outer-linear tree, with intermediate
sizes from the propagating estimator
(:func:`~repro.cost.cardinality.step`).  Cost models are pure: budget
accounting happens in :mod:`repro.core.state`, which wraps plan
evaluation with charging.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.catalog.join_graph import JoinGraph
from repro.plans.join_order import JoinOrder

__all__ = ["CostModel", "CostOverflowError"]


class CostOverflowError(OverflowError):
    """A cardinality or cost computation left the finite float range.

    Raised instead of silently propagating ``inf``/``NaN`` so that callers
    (the resilient path's guards, the CLI's exit code 4) can distinguish
    a broken estimate from a merely enormous one.
    """


class CostModel(ABC):
    """Prices hash joins.  Subclasses define :meth:`join_cost`."""

    name: str = "abstract"

    @abstractmethod
    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        """Cost of one hash join with the given estimated sizes.

        The contract every model keeps: the cost is non-negative and
        non-decreasing in ``outer_size`` and in ``result_size``, in
        float arithmetic.  The exact search rests on it twice.  Its
        dominance rule needs it (a prefix no larger and no costlier
        completes no costlier), and so does its remainder floor: outer
        and result sizes never fall below one tuple, so every join with
        inner ``N`` prices at least ``join_cost(1, N, 1)``.
        """

    def plan_cost(self, order: JoinOrder, graph: JoinGraph) -> float:
        """Total cost of the outer-linear plan given by ``order``.

        Raises :class:`CostOverflowError` if any join's cost (or the
        running total) leaves the finite float range — a symptom of a
        broken cost model or corrupted statistics, never of a merely
        expensive plan (cardinalities are clamped upstream).
        """
        # Imported here: the step's module compiles the stock models,
        # which subclass this one.
        from repro.cost.cardinality import QueryContext, start_state, step

        context = QueryContext(graph, self)
        state = start_state(context, order[0])
        for position in range(1, len(order)):
            step(context, state, order[position])
        total = state.cost
        if not math.isfinite(total):
            raise CostOverflowError(
                f"{self.name} cost model produced non-finite plan cost "
                f"{total!r} for order {order}"
            )
        return total

    def __str__(self) -> str:
        return self.name
