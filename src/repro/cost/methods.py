"""Additional join methods (the paper's §7 future work).

The paper restricts itself to the hash join and notes: *"Our work can be
extended by incorporating join methods other than the hash join method."*
This module provides that extension:

* :class:`NestedLoopCostModel` — tuple-at-a-time nested loops; cost
  ``outer * inner`` work plus result construction.
* :class:`SortMergeCostModel` — sort both operands then merge; cost
  ``n log n`` on each side plus a merge pass.  (Its cost is *not* of the
  ``n1 * g(n2)`` form KBZ's rank theory requires — exactly the paper's
  caveat for the KBZ heuristic.)
* :class:`MultiMethodCostModel` — per join, charge the cheapest of a set
  of methods: the optimizer then effectively performs join-method
  selection alongside join ordering, since the plan cost already reflects
  the best per-join choice.  :meth:`MultiMethodCostModel.chosen_methods`
  reports which method won each join of a plan.

All three plug into every optimizer unchanged — the search algorithms
only see ``plan_cost``.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.catalog.join_graph import JoinGraph
from repro.cost.base import CostModel
from repro.cost.cardinality import QueryContext, start_state, step
from repro.plans.join_order import JoinOrder
from repro.utils.validation import check_positive


class NestedLoopCostModel(CostModel):
    """Tuple-at-a-time nested-loops join (no index)."""

    name = "nested-loop"

    def __init__(self, compare_cost: float = 0.02, output_cost: float = 1.5) -> None:
        self.compare_cost = check_positive("compare_cost", compare_cost)
        self.output_cost = check_positive("output_cost", output_cost)

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        return (
            # Operands arrive clamped to MAX_CARDINALITY, and plan_cost
            # rejects non-finite totals.
            self.compare_cost * outer_size * inner_size
            + self.output_cost * result_size
        )


class SortMergeCostModel(CostModel):
    """Sort-merge join: sort both sides, then a single merge pass.

    The sort term ``n log2 n`` makes the cost depend on the *outer* size
    non-linearly — the form KBZ's rank derivation cannot accommodate
    (the paper's §4.2 caveat).
    """

    name = "sort-merge"

    def __init__(
        self,
        sort_cost: float = 1.0,
        merge_cost: float = 1.0,
        output_cost: float = 1.5,
    ) -> None:
        self.sort_cost = check_positive("sort_cost", sort_cost)
        self.merge_cost = check_positive("merge_cost", merge_cost)
        self.output_cost = check_positive("output_cost", output_cost)

    @staticmethod
    def _n_log_n(size: float) -> float:
        return size * math.log2(max(size, 2.0))

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        return (
            self.sort_cost * (self._n_log_n(outer_size) + self._n_log_n(inner_size))
            + self.merge_cost * (outer_size + inner_size)
            + self.output_cost * result_size
        )


class MultiMethodCostModel(CostModel):
    """Per-join choice of the cheapest method from a fixed set.

    With this model the optimizer's search over join orders implicitly
    performs join-method selection as well: each join is priced at the
    best available method, so an order is preferred exactly when its best
    per-join implementations are cheapest overall.
    """

    name = "multi-method"

    def __init__(self, methods: Sequence[CostModel] | None = None) -> None:
        if methods is None:
            from repro.cost.memory import MainMemoryCostModel

            methods = (
                MainMemoryCostModel(),
                NestedLoopCostModel(),
                SortMergeCostModel(),
            )
        if not methods:
            raise ValueError("at least one join method is required")
        self.methods = tuple(methods)

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        return min(
            method.join_cost(outer_size, inner_size, result_size)
            for method in self.methods
        )

    def chosen_methods(self, order: JoinOrder, graph: JoinGraph) -> list[str]:
        """The winning method name for each join of ``order``."""
        context = QueryContext(graph, self)
        state = start_state(context, order[0])
        chosen: list[str] = []
        for position in range(1, len(order)):
            inner = order[position]
            outer_size = state.size
            step(context, state, inner)
            sizes = (outer_size, context.cardinalities[inner], state.size)
            winner = min(self.methods, key=lambda m: m.join_cost(*sizes))
            chosen.append(winner.name)
        return chosen
