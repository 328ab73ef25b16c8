"""Tests for the augmentation heuristic and its five criteria."""

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.core.augmentation import (
    AugmentationCriterion,
    augment_order,
    augmentation_orders,
    choose_next,
    first_relation_sequence,
)
from repro.core.budget import Budget, BudgetExhausted
from repro.plans.validity import is_valid_order

from tests.conftest import make_relations


ALL_CRITERIA = list(AugmentationCriterion)


class TestAugmentOrder:
    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_orders_are_valid(self, cycle, criterion):
        for first in range(cycle.n_relations):
            order = augment_order(cycle, first, criterion)
            assert is_valid_order(order, cycle)
            assert order[0] == first

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_complete_permutation(self, star, criterion):
        order = augment_order(star, 0, criterion)
        assert sorted(order.positions) == list(range(star.n_relations))

    def test_deterministic(self, chain):
        a = augment_order(chain, 0, AugmentationCriterion.MIN_SELECTIVITY)
        b = augment_order(chain, 0, AugmentationCriterion.MIN_SELECTIVITY)
        assert a == b

    def test_chain_from_end_is_forced(self, chain):
        """On a chain, starting at one end forces the whole order."""
        order = augment_order(chain, 0, AugmentationCriterion.MIN_CARDINALITY)
        assert order.positions == (0, 1, 2, 3, 4)

    def test_handles_disconnected_graph(self, two_components):
        order = augment_order(
            two_components, 0, AugmentationCriterion.MIN_CARDINALITY
        )
        assert sorted(order.positions) == list(range(5))


class TestCriteria:
    @staticmethod
    def _choice_graph() -> JoinGraph:
        """R0 joined to three candidates with contrasting statistics.

        R1: tiny cardinality, weak selectivity.
        R2: huge cardinality, strong selectivity (many distinct values).
        R3: middling, high degree (extra edge to R1).
        """
        relations = make_relations([100, 10, 10_000, 500])
        predicates = [
            JoinPredicate(0, 1, 10, 5),        # J = 1/10
            JoinPredicate(0, 2, 90, 9_000),    # J = 1/9000
            JoinPredicate(0, 3, 50, 100),      # J = 1/100
            JoinPredicate(1, 3, 5, 100),
            JoinPredicate(2, 3, 8_000, 120),   # lifts deg(R3) to 3
        ]
        return JoinGraph(relations, predicates)

    def test_min_cardinality_picks_smallest(self):
        graph = self._choice_graph()
        choice = choose_next(
            graph, {0}, {1, 2, 3}, AugmentationCriterion.MIN_CARDINALITY
        )
        assert choice == 1

    def test_max_degree_picks_most_connected(self):
        graph = self._choice_graph()
        choice = choose_next(
            graph, {0}, {1, 2, 3}, AugmentationCriterion.MAX_DEGREE
        )
        assert choice == 3  # degree 3 (edges to 0, 1, and 2)

    def test_min_selectivity_picks_most_selective(self):
        graph = self._choice_graph()
        choice = choose_next(
            graph, {0}, {1, 2, 3}, AugmentationCriterion.MIN_SELECTIVITY
        )
        assert choice == 2  # J = 1/9000

    def test_min_result_size_picks_smallest_product(self):
        graph = self._choice_graph()
        # Results: R1: 100*10/10 = 100; R2: 100*10000/9000 = 111;
        # R3: 100*500/100 = 500.
        choice = choose_next(
            graph, {0}, {1, 2, 3}, AugmentationCriterion.MIN_RESULT_SIZE
        )
        assert choice == 1

    def test_min_rank_formula(self):
        graph = self._choice_graph()
        # rank_j = (N_i N_j J - 1) / (0.5 N_i N_j / D_j):
        # R1: (100-1)/(0.5*100*10/5)   = 99/100  = 0.99
        # R2: (111.1-1)/(0.5*100*10000/9000) = 110.1/55.6 = 1.98
        # R3: (500-1)/(0.5*100*500/100) = 499/250 = 2.0
        choice = choose_next(
            graph, {0}, {1, 2, 3}, AugmentationCriterion.MIN_RANK
        )
        assert choice == 1

    def test_criteria_can_disagree(self):
        graph = self._choice_graph()
        choices = {
            criterion: choose_next(graph, {0}, {1, 2, 3}, criterion)
            for criterion in ALL_CRITERIA
        }
        assert len(set(choices.values())) > 1

    def test_only_frontier_relations_considered(self, chain):
        # From {0}, only relation 1 is adjacent; all criteria must pick it.
        for criterion in ALL_CRITERIA:
            assert choose_next(chain, {0}, {1, 2, 3, 4}, criterion) == 1


class TestFirstRelationSequence:
    def test_increasing_cardinality(self, star):
        sequence = first_relation_sequence(star)
        cards = [star.cardinality(i) for i in sequence]
        assert cards == sorted(cards)

    def test_is_permutation(self, star):
        assert sorted(first_relation_sequence(star)) == list(
            range(star.n_relations)
        )


class TestAugmentationOrders:
    def test_yields_one_per_relation(self, cycle):
        orders = list(augmentation_orders(cycle))
        assert len(orders) == cycle.n_relations

    def test_budget_charged(self, cycle):
        budget = Budget(limit=1e6)
        list(augmentation_orders(cycle, budget=budget))
        assert budget.spent > 0

    def test_budget_exhaustion_stops_stream(self, medium_query):
        budget = Budget(limit=3)
        with pytest.raises(BudgetExhausted):
            list(augmentation_orders(medium_query.graph, budget=budget))
