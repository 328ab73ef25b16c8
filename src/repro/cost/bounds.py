"""Lower bounds on the optimal plan cost.

The paper's optimizers may stop early when the current best solution is
sufficiently close to a lower bound on the optimum.  The bound here is
cheap and admissible for both cost models:

* every relation except (at most) one must appear as the *inner* of some
  hash join, so the total cost is at least the sum of the cheapest possible
  per-inner charges, dropping the most expensive one;
* every join's result is at least one tuple, so the per-join output charge
  contributes at least ``N`` times the model's cost of a single-tuple join
  on minimal operands.

The bound is deliberately loose — its role is the stopping rule, not
pruning — and is exact on single-join queries for the memory model.
"""

from __future__ import annotations

from repro.catalog.join_graph import JoinGraph
from repro.cost.base import CostModel


def lower_bound(graph: JoinGraph, model: CostModel) -> float:
    """An admissible lower bound on the cost of any valid plan.

    Works for any :class:`CostModel` by pricing, for each relation, the
    cheapest join it could possibly take part in as the inner operand (with
    a one-tuple outer and a one-tuple result), summing those charges over
    all relations but the largest contributor.
    """
    if graph.n_relations < 2:
        return 0.0
    per_inner = [
        model.join_cost(1.0, graph.cardinality(k), 1.0)
        for k in range(graph.n_relations)
    ]
    return sum(per_inner) - max(per_inner)

