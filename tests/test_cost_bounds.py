"""Tests for the lower-bound estimator."""

import pytest

from repro.cost.bounds import lower_bound
from repro.cost.memory import MainMemoryCostModel
from repro.plans.validity import valid_orders

from tests.conftest import chain_graph


class TestLowerBound:
    def test_zero_for_single_relation(self):
        graph = chain_graph([10])
        assert lower_bound(graph, MainMemoryCostModel()) == 0.0

    def test_admissible_on_small_graphs(self, chain):
        model = MainMemoryCostModel()
        bound = lower_bound(chain, model)
        best = min(model.plan_cost(order, chain) for order in valid_orders(chain))
        assert bound <= best

    def test_admissible_on_star(self, star):
        model = MainMemoryCostModel()
        bound = lower_bound(star, model)
        best = min(model.plan_cost(order, star) for order in valid_orders(star))
        assert bound <= best

    def test_positive_for_multi_relation(self, chain):
        assert lower_bound(chain, MainMemoryCostModel()) > 0

    def test_exact_for_two_relations_build_term(self):
        graph = chain_graph([100, 50])
        model = MainMemoryCostModel()
        bound = lower_bound(graph, model)
        # Exactly the cheapest single-inner charge: build the 50-tuple side.
        assert bound == pytest.approx(model.join_cost(1.0, 50.0, 1.0))

