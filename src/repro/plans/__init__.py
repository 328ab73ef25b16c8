"""Plan representation: join orders (permutations) and outer-linear trees.

The paper restricts the search to *outer linear join trees*: every join has
a base relation as its inner operand, so each tree is equivalent to a
permutation of the relations.  :class:`JoinOrder` is that permutation;
:class:`JoinTree` is the tree view used for display and execution.
"""

from repro.plans.join_order import JoinOrder
from repro.plans.join_tree import JoinTree, JoinTreeNode, build_join_tree
from repro.plans.bushy import (
    BushyTree,
    bushy_cost,
    is_valid_bushy,
    linear_to_bushy,
    random_bushy_tree,
)
from repro.plans.validity import (
    deterministic_fallback_order,
    is_valid_order,
    first_invalid_position,
    random_valid_order,
    valid_orders,
)

__all__ = [
    "JoinOrder",
    "JoinTree",
    "JoinTreeNode",
    "build_join_tree",
    "BushyTree",
    "bushy_cost",
    "is_valid_bushy",
    "linear_to_bushy",
    "random_bushy_tree",
    "deterministic_fallback_order",
    "is_valid_order",
    "first_invalid_position",
    "random_valid_order",
    "valid_orders",
]
