"""Tests for the statistics-matching data generator."""

import pytest

from repro.catalog.builder import QueryBuilder
from repro.engine.datagen import generate_database, join_column_name


class TestJoinColumnName:
    def test_unique_per_relation_and_edge(self):
        names = {
            join_column_name(r, e) for r in range(3) for e in range(3)
        }
        assert len(names) == 9


class TestGenerateDatabase:
    def test_one_table_per_relation(self, chain):
        tables = generate_database(chain, seed=0)
        assert set(tables) == set(range(chain.n_relations))

    def test_row_counts_match_effective_cardinality(self):
        builder = QueryBuilder()
        a = builder.relation("A", 1000, selections=(0.1,))
        b = builder.relation("B", 50)
        builder.join(a, b, left_distinct=10, right_distinct=10)
        graph = builder.build().graph
        tables = generate_database(graph, seed=0)
        assert tables[a].n_rows == 100
        assert tables[b].n_rows == 50

    def test_join_columns_present_on_both_sides(self, chain):
        tables = generate_database(chain, seed=0)
        for index, predicate in enumerate(chain.predicates):
            assert tables[predicate.left].has_column(
                join_column_name(predicate.left, index)
            )
            assert tables[predicate.right].has_column(
                join_column_name(predicate.right, index)
            )

    def test_values_within_distinct_domain(self, chain):
        tables = generate_database(chain, seed=0)
        for index, predicate in enumerate(chain.predicates):
            for side in predicate.endpoints:
                column = tables[side].column(join_column_name(side, index))
                domain = int(round(predicate.distinct_values(side)))
                assert all(0 <= v < domain for v in column.values)

    def test_deterministic(self, chain):
        a = generate_database(chain, seed=5)
        b = generate_database(chain, seed=5)
        for index in a:
            for name in a[index].column_names:
                assert a[index].column(name).values == b[index].column(name).values

    def test_max_rows_caps_and_scales(self):
        builder = QueryBuilder()
        a = builder.relation("A", 10_000)
        b = builder.relation("B", 100)
        builder.join(a, b, left_distinct=5_000, right_distinct=50)
        graph = builder.build().graph
        tables = generate_database(graph, seed=0, max_rows=500)
        assert tables[a].n_rows == 500
        column = tables[a].column(join_column_name(a, 0))
        # Domain scaled by 500/10000: 5000 * 0.05 = 250.
        assert max(column.values) < 250

    def test_selectivity_approximately_realised(self):
        """Measured match rate tracks the declared join selectivity."""
        builder = QueryBuilder()
        a = builder.relation("A", 2000)
        b = builder.relation("B", 2000)
        builder.join(a, b, left_distinct=100, right_distinct=50)
        graph = builder.build().graph
        tables = generate_database(graph, seed=3)
        left = tables[a].column(join_column_name(a, 0)).values
        right = tables[b].column(join_column_name(b, 0)).values
        from collections import Counter

        counts = Counter(right)
        matches = sum(counts.get(v, 0) for v in left)
        expected = 2000 * 2000 / 100
        assert matches == pytest.approx(expected, rel=0.15)
