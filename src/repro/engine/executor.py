"""Execute a join order over generated data and measure what the
optimizer only estimated.

The executor interprets a join order exactly as the cost models price it:
left to right, each relation hash-joined into the running intermediate on
every predicate linking it to the relations already joined (cross product
when none).  It returns the final table plus the measured size of every
intermediate, for comparison against
:func:`repro.cost.cardinality.prefix_cardinalities`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph
from repro.cost.cardinality import prefix_cardinalities
from repro.engine.datagen import join_column_name
from repro.engine.operators import hash_join
from repro.engine.table import Table
from repro.plans.join_order import JoinOrder


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing one join order on concrete tables."""

    order: JoinOrder
    final: Table
    intermediate_sizes: tuple[int, ...]
    estimated_sizes: tuple[float, ...]
    #: Measured row count of each base table, in *order* sequence: entry
    #: ``k`` is the size of ``tables[order[k]]`` as scanned.
    base_sizes: tuple[int, ...] = ()

    @property
    def n_rows(self) -> int:
        return self.final.n_rows

    @property
    def operator_cardinalities(self) -> tuple[int, ...]:
        """Measured output rows of every operator in the pipeline.

        Entry 0 is the scan of ``order[0]``; entry ``k >= 1`` is the
        output of the ``k``-th hash join — the measured counterpart of
        :func:`repro.cost.cardinality.prefix_cardinalities` on the same
        order.
        """
        first = self.base_sizes[0] if self.base_sizes else self.final.n_rows
        return (first, *self.intermediate_sizes)

    def size_ratios(self) -> list[float]:
        """Measured / estimated size per join (1.0 = perfect estimate).

        Joins whose measured size is zero are reported as 0.0.
        """
        ratios = []
        for measured, estimated in zip(
            self.intermediate_sizes, self.estimated_sizes[1:]
        ):
            ratios.append(measured / estimated if estimated > 0 else 0.0)
        return ratios


def execute_bushy(tree, graph: JoinGraph, tables: dict[int, Table]) -> Table:
    """Execute a bushy join tree (see :mod:`repro.plans.bushy`).

    Each internal node hash-joins its children on every predicate
    crossing the partition (cross product when none); the left child is
    the probing (outer) side, matching :func:`repro.plans.bushy.bushy_cost`.
    """
    predicate_index = {p: i for i, p in enumerate(graph.predicates)}

    def run(node) -> Table:
        if node.is_leaf:
            return tables[node.relation]
        left_table = run(node.left)
        right_table = run(node.right)
        left_set = node.left.relations
        join_columns = []
        for vertex in node.right.relations:
            for neighbor, predicate in graph.adjacency(vertex).items():
                if neighbor in left_set:
                    p_index = predicate_index[predicate]
                    join_columns.append(
                        (
                            join_column_name(neighbor, p_index),
                            join_column_name(vertex, p_index),
                        )
                    )
        return hash_join(left_table, right_table, join_columns)

    return run(tree)


def execute_order(
    order: JoinOrder,
    graph: JoinGraph,
    tables: dict[int, Table],
) -> ExecutionResult:
    """Run the outer-linear plan ``order`` over ``tables``."""
    if len(order) != graph.n_relations:
        raise ValueError("order does not match graph")
    current = tables[order[0]]
    placed = [order[0]]
    sizes: list[int] = []
    predicate_index = {p: i for i, p in enumerate(graph.predicates)}
    for position in range(1, len(order)):
        inner = order[position]
        join_columns = []
        for predicate in graph.edges_between(placed, inner):
            p_index = predicate_index[predicate]
            outer_side = predicate.other(inner)
            join_columns.append(
                (
                    join_column_name(outer_side, p_index),
                    join_column_name(inner, p_index),
                )
            )
        current = hash_join(current, tables[inner], join_columns)
        sizes.append(current.n_rows)
        placed.append(inner)
    return ExecutionResult(
        order=order,
        final=current,
        intermediate_sizes=tuple(sizes),
        estimated_sizes=tuple(prefix_cardinalities(order, graph)),
        base_sizes=tuple(tables[vertex].n_rows for vertex in order),
    )
