"""Outer-linear join trees.

A join order maps one-to-one onto an *outer linear join tree*: the first
relation is the leftmost leaf; each subsequent relation is the inner (right)
operand of the next join, whose outer (left) operand is the tree built so
far.  The tree view carries the estimated cardinality of every intermediate
result and is what the execution engine interprets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.plans.join_order import JoinOrder


@dataclass(frozen=True)
class JoinTreeNode:
    """One join in an outer-linear tree.

    ``inner`` is the base relation joined at this step; ``predicates`` are
    the join predicates connecting it to the outer side (empty for a cross
    product); ``outer_cardinality`` / ``result_cardinality`` are the
    estimated sizes of the operand and the produced intermediate.
    """

    inner: int
    predicates: tuple[JoinPredicate, ...]
    outer_cardinality: float
    inner_cardinality: float
    result_cardinality: float

    @property
    def is_cross_product(self) -> bool:
        return not self.predicates


@dataclass(frozen=True)
class JoinTree:
    """An outer-linear join tree over a join graph."""

    graph: JoinGraph
    order: JoinOrder
    nodes: tuple[JoinTreeNode, ...]

    @property
    def result_cardinality(self) -> float:
        """Estimated cardinality of the final result."""
        if not self.nodes:
            return self.graph.cardinality(self.order[0])
        return self.nodes[-1].result_cardinality

    @property
    def n_cross_products(self) -> int:
        return sum(1 for node in self.nodes if node.is_cross_product)

    def intermediate_cardinalities(self) -> list[float]:
        """Estimated sizes of all intermediate results, join by join."""
        return [node.result_cardinality for node in self.nodes]

    def __str__(self) -> str:
        names = [self.graph.relation(i).name for i in self.order]
        text = names[0]
        for name, node in zip(names[1:], self.nodes):
            operator = "x" if node.is_cross_product else "|><|"
            text = f"({text} {operator} {name})"
        return text

    def explain(self) -> str:
        """A multi-line EXPLAIN-style rendering with estimated sizes."""
        lines = [f"JoinTree over {self.graph}"]
        first = self.order[0]
        lines.append(
            f"  scan {self.graph.relation(first).name}"
            f"  (est. {self.graph.cardinality(first):.1f} tuples)"
        )
        for node in self.nodes:
            operator = "cross product" if node.is_cross_product else "hash join"
            lines.append(
                f"  {operator} with {self.graph.relation(node.inner).name}"
                f"  (inner {node.inner_cardinality:.1f}, "
                f"outer {node.outer_cardinality:.1f} "
                f"-> {node.result_cardinality:.1f} tuples)"
            )
        return "\n".join(lines)


def build_join_tree(order: JoinOrder, graph: JoinGraph) -> JoinTree:
    """Materialise the outer-linear tree for ``order``.

    Intermediate cardinalities come from the propagating estimator's
    :func:`~repro.cost.cardinality.step`, matching exactly what the cost
    models price.
    """
    from repro.cost.cardinality import QueryContext, start_state, step
    from repro.cost.memory import MainMemoryCostModel

    # Sizes do not depend on the cost model; any one compiles the table.
    context = QueryContext(graph, MainMemoryCostModel())
    state = start_state(context, order[0])
    nodes: list[JoinTreeNode] = []
    for position in range(1, len(order)):
        inner = order[position]
        placed = state.mask
        outer_size = state.size
        step(context, state, inner)
        nodes.append(
            JoinTreeNode(
                inner=inner,
                predicates=tuple([
                    predicate
                    for neighbor, predicate in graph.adjacency(inner).items()
                    if (placed >> neighbor) & 1
                ]),
                outer_cardinality=outer_size,
                inner_cardinality=context.cardinalities[inner],
                result_cardinality=state.size,
            )
        )
    return JoinTree(graph=graph, order=order, nodes=tuple(nodes))
