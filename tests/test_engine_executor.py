"""Tests for the plan executor."""

import itertools

import pytest

from repro.catalog.builder import QueryBuilder
from repro.engine.datagen import generate_database, join_column_name
from repro.engine.executor import execute_order
from repro.plans.join_order import JoinOrder
from repro.plans.validity import valid_orders


@pytest.fixture(scope="module")
def small_setup():
    builder = QueryBuilder("exec")
    a = builder.relation("A", 200)
    b = builder.relation("B", 300)
    c = builder.relation("C", 100)
    builder.join(a, b, left_distinct=40, right_distinct=60)
    builder.join(b, c, left_distinct=50, right_distinct=25)
    graph = builder.build().graph
    tables = generate_database(graph, seed=1)
    return graph, tables


class TestExecuteOrder:
    def test_result_sizes_recorded(self, small_setup):
        graph, tables = small_setup
        result = execute_order(JoinOrder([0, 1, 2]), graph, tables)
        assert len(result.intermediate_sizes) == graph.n_joins
        assert result.n_rows == result.intermediate_sizes[-1]

    def test_final_size_order_independent(self, small_setup):
        """All valid orders produce the same final result size."""
        graph, tables = small_setup
        sizes = {
            execute_order(order, graph, tables).n_rows
            for order in valid_orders(graph)
        }
        assert len(sizes) == 1

    def test_estimates_attached(self, small_setup):
        graph, tables = small_setup
        result = execute_order(JoinOrder([0, 1, 2]), graph, tables)
        assert len(result.estimated_sizes) == graph.n_relations

    def test_estimates_track_measurements(self, small_setup):
        """Measured/estimated ratios stay within an order of magnitude."""
        graph, tables = small_setup
        result = execute_order(JoinOrder([0, 1, 2]), graph, tables)
        for ratio in result.size_ratios():
            assert 0.1 < ratio < 10.0

    def test_length_mismatch_rejected(self, small_setup):
        graph, tables = small_setup
        with pytest.raises(ValueError):
            execute_order(JoinOrder([0, 1]), graph, tables)

    def test_cross_product_execution(self):
        builder = QueryBuilder()
        builder.relation("A", 10)
        builder.relation("B", 20)
        graph = builder.build().graph  # no predicates: disconnected
        tables = generate_database(graph, seed=0)
        result = execute_order(JoinOrder([0, 1]), graph, tables)
        assert result.n_rows == 200

    def test_cyclic_graph_second_predicate_filters(self):
        builder = QueryBuilder("cycle")
        a = builder.relation("A", 100)
        b = builder.relation("B", 100)
        c = builder.relation("C", 100)
        builder.join(a, b, 20, 20)
        builder.join(b, c, 20, 20)
        builder.join(a, c, 20, 20)
        graph = builder.build().graph
        tables = generate_database(graph, seed=2)
        result = execute_order(JoinOrder([0, 1, 2]), graph, tables)
        # The final join applies two predicates; the result must be no
        # larger than executing with either predicate alone.
        from repro.engine.operators import hash_join
        from repro.engine.datagen import join_column_name

        two_join = hash_join(
            hash_join(
                tables[0],
                tables[1],
                [(join_column_name(0, 0), join_column_name(1, 0))],
            ),
            tables[2],
            [(join_column_name(1, 1), join_column_name(2, 1))],
        )
        assert result.n_rows <= two_join.n_rows


def brute_force_prefix_counts(order, graph, tables):
    """Count, for every prefix of ``order`` of length >= 2, the tuples of
    the cross product that satisfy every predicate internal to the prefix.

    This is the executor's contract stated independently of its hash-join
    implementation; it is only affordable on tiny tables.
    """
    counts = []
    for length in range(2, len(order) + 1):
        placed = list(order)[:length]
        internal = [
            (index, predicate)
            for index, predicate in enumerate(graph.predicates)
            if predicate.left in placed and predicate.right in placed
        ]
        count = 0
        for rows in itertools.product(
            *(range(tables[vertex].n_rows) for vertex in placed)
        ):
            row_of = dict(zip(placed, rows))
            for index, predicate in internal:
                left = tables[predicate.left].column(
                    join_column_name(predicate.left, index)
                )
                right = tables[predicate.right].column(
                    join_column_name(predicate.right, index)
                )
                if (
                    left.values[row_of[predicate.left]]
                    != right.values[row_of[predicate.right]]
                ):
                    break
            else:
                count += 1
        counts.append(count)
    return tuple(counts)


class TestCardinalityAccounting:
    """The measured per-operator row counts are exactly the cardinalities
    of the joins, verified against a brute-force cross-product count."""

    @pytest.fixture(scope="class")
    def tiny_cycle(self):
        builder = QueryBuilder("tiny")
        a = builder.relation("A", 20)
        b = builder.relation("B", 25)
        c = builder.relation("C", 15)
        builder.join(a, b, left_distinct=5, right_distinct=6)
        builder.join(b, c, left_distinct=4, right_distinct=5)
        builder.join(a, c, left_distinct=6, right_distinct=3)
        graph = builder.build().graph
        tables = generate_database(graph, seed=9)
        return graph, tables

    def test_intermediates_match_brute_force(self, tiny_cycle):
        graph, tables = tiny_cycle
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0], [1, 0, 2]):
            result = execute_order(JoinOrder(order), graph, tables)
            assert result.intermediate_sizes == brute_force_prefix_counts(
                order, graph, tables
            )

    def test_chain_with_selection_free_tables(self):
        builder = QueryBuilder("tinychain")
        a = builder.relation("A", 12)
        b = builder.relation("B", 18)
        c = builder.relation("C", 10)
        builder.join(a, b, left_distinct=4, right_distinct=6)
        builder.join(b, c, left_distinct=5, right_distinct=4)
        graph = builder.build().graph
        tables = generate_database(graph, seed=4)
        result = execute_order(JoinOrder([0, 1, 2]), graph, tables)
        assert result.intermediate_sizes == brute_force_prefix_counts(
            [0, 1, 2], graph, tables
        )
        assert tuple(tables[v].n_rows for v in (0, 1, 2)) == (12, 18, 10)
