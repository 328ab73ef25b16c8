"""Tests for the local improvement heuristic."""

import pytest

from repro.core.budget import Budget
from repro.core.local_improvement import (
    FEASIBLE_STRATEGIES,
    best_strategy_for_budget,
    check_strategy,
    improve_pass,
    local_improve,
    pass_cost_estimate,
)
from repro.core.state import Evaluation, Evaluator
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import is_valid_order, valid_orders

from tests.conftest import star_graph


def make_start(graph, order_positions, limit=1e9):
    evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=limit))
    order = JoinOrder(order_positions)
    return Evaluation(order, evaluator.evaluate(order)), evaluator


class TestStrategyValidation:
    def test_accepts_paper_strategies(self):
        for cluster, overlap in FEASIBLE_STRATEGIES:
            check_strategy(cluster, overlap, n_relations=10)

    def test_rejects_cluster_of_one(self):
        with pytest.raises(ValueError):
            check_strategy(1, 0, 10)

    def test_rejects_overlap_equal_to_cluster(self):
        with pytest.raises(ValueError):
            check_strategy(3, 3, 10)

    def test_rejects_cluster_beyond_relations(self):
        with pytest.raises(ValueError):
            check_strategy(11, 0, 10)


class TestPassCostEstimate:
    def test_more_overlap_costs_more(self):
        assert pass_cost_estimate(4, 3, 30) > pass_cost_estimate(4, 0, 30)

    def test_bigger_cluster_costs_more(self):
        assert pass_cost_estimate(5, 4, 30) > pass_cost_estimate(3, 2, 30)


class TestBestStrategyForBudget:
    def test_rich_budget_gets_five_four(self):
        assert best_strategy_for_budget(Budget(limit=1e12), 30) == (5, 4)

    def test_tiny_budget_gets_none(self):
        assert best_strategy_for_budget(Budget(limit=1.0), 30) is None

    def test_moderate_budget_gets_weaker_strategy(self):
        units = pass_cost_estimate(2, 1, 30) + 1
        strategy = best_strategy_for_budget(Budget(limit=units), 30)
        assert strategy in ((2, 1), (2, 0))

    def test_cluster_never_exceeds_relations(self):
        strategy = best_strategy_for_budget(Budget(limit=1e12), 3)
        assert strategy is not None
        assert strategy[0] <= 3


class TestImprovePass:
    def test_never_worse(self, star):
        start, evaluator = make_start(star, [0, 4, 2, 1, 3])
        improved = improve_pass(start, evaluator, cluster_size=3, overlap=2)
        assert improved.cost <= start.cost

    def test_result_valid(self, cycle):
        start, evaluator = make_start(cycle, [0, 1, 2, 3])
        improved = improve_pass(start, evaluator, cluster_size=3, overlap=1)
        assert is_valid_order(improved.order, cycle)

    def test_full_window_finds_optimum(self):
        graph = star_graph([1000, 100, 200, 50])
        worst = max(
            valid_orders(graph),
            key=lambda o: MainMemoryCostModel().plan_cost(o, graph),
        )
        start, evaluator = make_start(graph, worst.positions)
        improved = improve_pass(
            start, evaluator, cluster_size=graph.n_relations, overlap=0
        )
        best = min(
            MainMemoryCostModel().plan_cost(o, graph) for o in valid_orders(graph)
        )
        assert improved.cost == pytest.approx(best)


class TestLocalImprove:
    def test_fixpoint_reached(self, star):
        start, evaluator = make_start(star, [0, 4, 2, 1, 3])
        first = local_improve(start, evaluator, cluster_size=3, overlap=2)
        second = local_improve(first, evaluator, cluster_size=3, overlap=2)
        assert second.cost == first.cost

    def test_budget_exhaustion_returns_best_so_far(self, medium_query):
        graph = medium_query.graph
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=500))
        order = JoinOrder(_any_valid(graph))
        start = Evaluation(order, evaluator.evaluate(order))
        improved = local_improve(start, evaluator, cluster_size=4, overlap=3)
        assert improved.cost <= start.cost
        assert evaluator.budget.exhausted

    def test_max_passes_respected(self, star):
        start, evaluator = make_start(star, [0, 4, 2, 1, 3])
        before = evaluator.n_evaluations
        local_improve(start, evaluator, 2, 1, max_passes=1)
        one_pass_evals = evaluator.n_evaluations - before
        # A (2,1) pass over 5 relations visits 4 windows x 1 extra perm.
        assert one_pass_evals <= 8

    def test_nonoverlapping_single_pass(self, chain):
        start, evaluator = make_start(chain, [4, 3, 2, 1, 0])
        improved = local_improve(start, evaluator, cluster_size=2, overlap=0)
        assert improved.cost <= start.cost


def _any_valid(graph):
    import random

    from repro.plans.validity import random_valid_order

    return random_valid_order(graph, random.Random(0)).positions
