"""Tests for the top-level optimize() entry point."""

import pytest

from repro.core.budget import Budget
from repro.core.optimizer import OptimizationResult, available_methods, optimize
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.plans.validity import is_valid_order

from tests.conftest import two_component_graph


class TestOptimize:
    def test_accepts_query_and_graph(self, small_query):
        from_query = optimize(small_query, time_factor=0.5, units_per_n2=5, seed=0)
        from_graph = optimize(
            small_query.graph, time_factor=0.5, units_per_n2=5, seed=0
        )
        assert from_query.cost == from_graph.cost

    def test_default_method_is_iai(self, small_query):
        result = optimize(small_query, time_factor=0.5, units_per_n2=5)
        assert result.method == "IAI"

    def test_explicit_budget_wins_over_factor(self, small_query):
        budget = Budget(limit=200)
        result = optimize(small_query, budget=budget, time_factor=9.0)
        assert result.units_spent <= 200

    def test_works_with_disk_model(self, small_query):
        result = optimize(
            small_query, model=DiskCostModel(), time_factor=0.5, units_per_n2=5
        )
        assert result.cost > 0

    def test_result_contains_trajectory(self, small_query):
        result = optimize(small_query, time_factor=1.0, units_per_n2=5)
        assert result.trajectory
        spents = [s for s, _ in result.trajectory]
        assert spents == sorted(spents)

    def test_best_cost_within(self, small_query):
        result = optimize(small_query, time_factor=3.0, units_per_n2=5)
        assert result.best_cost_within(0) is None
        final = result.best_cost_within(float("inf"))
        assert final == pytest.approx(result.cost)
        halfway = result.best_cost_within(result.units_spent / 2)
        assert halfway is None or halfway >= final

    def test_join_tree_matches_order(self, small_query):
        result = optimize(small_query, time_factor=0.5, units_per_n2=5)
        tree = result.join_tree()
        assert tree.order == result.order

    def test_available_methods_nonempty(self):
        methods = available_methods()
        assert "IAI" in methods and "SA" in methods


class TestDisconnectedQueries:
    def test_optimizes_components_separately(self):
        graph = two_component_graph()
        result = optimize(graph, method="II", time_factor=5, units_per_n2=10, seed=1)
        assert is_valid_order(result.order, graph)

    def test_components_contiguous_in_order(self):
        graph = two_component_graph()
        result = optimize(graph, method="II", time_factor=5, units_per_n2=10, seed=1)
        positions = list(result.order)
        component_of = {}
        for cid, component in enumerate(graph.components):
            for vertex in component:
                component_of[vertex] = cid
        labels = [component_of[p] for p in positions]
        # Once a component ends, it never reappears.
        changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert changes == len(graph.components) - 1

    def test_cost_includes_cross_products(self):
        graph = two_component_graph()
        result = optimize(graph, method="II", time_factor=5, units_per_n2=10, seed=1)
        model = MainMemoryCostModel()
        assert result.cost == pytest.approx(model.plan_cost(result.order, graph))

    def test_result_type(self):
        graph = two_component_graph()
        result = optimize(graph, method="AGI", time_factor=5, units_per_n2=10)
        assert isinstance(result, OptimizationResult)
