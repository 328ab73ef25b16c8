"""Tests for the KBZ heuristic (algorithms R, T, G)."""

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.core.augmentation import AugmentationCriterion
from repro.core.budget import Budget
from repro.core.kbz import (
    _Module,
    kbz_order_for_root,
    kbz_orders,
    kbz_root_sequence,
    kbz_spanning_tree,
)
from repro.cost.memory import MainMemoryCostModel
from repro.plans.validity import is_valid_order, valid_orders

from tests.conftest import make_relations, star_graph


class TestModule:
    def test_rank(self):
        module = _Module((0,), growth=3.0, cost=4.0)
        assert module.rank == pytest.approx(0.5)

    def test_negative_rank_for_shrinking_join(self):
        module = _Module((0,), growth=0.5, cost=1.0)
        assert module.rank < 0

    def test_asi_combination(self):
        a = _Module((0,), growth=2.0, cost=3.0)
        b = _Module((1,), growth=5.0, cost=7.0)
        combined = a.combined_with(b)
        assert combined.relations == (0, 1)
        assert combined.growth == pytest.approx(10.0)
        assert combined.cost == pytest.approx(3.0 + 2.0 * 7.0)

    def test_combination_is_associative_in_value(self):
        a = _Module((0,), 2.0, 3.0)
        b = _Module((1,), 5.0, 7.0)
        c = _Module((2,), 0.5, 1.0)
        left = a.combined_with(b).combined_with(c)
        right = a.combined_with(b.combined_with(c))
        assert left.growth == pytest.approx(right.growth)
        assert left.cost == pytest.approx(right.cost)


class TestSpanningTree:
    def test_tree_covers_all_vertices(self, cycle):
        tree = kbz_spanning_tree(cycle)
        degree_sum = sum(len(neighbors) for neighbors in tree.values())
        assert degree_sum == 2 * (cycle.n_relations - 1)

    def test_chain_tree_is_the_chain(self, chain):
        tree = kbz_spanning_tree(chain)
        assert sorted(tree[0]) == [1]
        assert sorted(tree[1]) == [0, 2]

    def test_selectivity_weight_drops_weakest_cycle_edge(self):
        relations = make_relations([100, 100, 100])
        predicates = [
            JoinPredicate(0, 1, 50, 50),   # J = 1/50
            JoinPredicate(1, 2, 80, 80),   # J = 1/80
            JoinPredicate(0, 2, 2, 2),     # J = 1/2 (weakest: dropped)
        ]
        graph = JoinGraph(relations, predicates)
        tree = kbz_spanning_tree(graph, AugmentationCriterion.MIN_SELECTIVITY)
        assert 2 not in tree[0]

    def test_rejects_disconnected(self, two_components):
        with pytest.raises(ValueError, match="connected"):
            kbz_spanning_tree(two_components)

    def test_rejects_bad_criterion(self, chain):
        with pytest.raises(ValueError):
            kbz_spanning_tree(chain, AugmentationCriterion.MIN_CARDINALITY)

    @pytest.mark.parametrize(
        "criterion",
        [
            AugmentationCriterion.MIN_SELECTIVITY,
            AugmentationCriterion.MIN_RESULT_SIZE,
            AugmentationCriterion.MIN_RANK,
        ],
    )
    def test_all_weights_produce_trees(self, cycle, criterion):
        tree = kbz_spanning_tree(cycle, criterion)
        assert sum(len(n) for n in tree.values()) == 2 * (cycle.n_relations - 1)

    def test_budget_charged(self, cycle):
        budget = Budget(limit=1e6)
        kbz_spanning_tree(cycle, budget=budget)
        assert budget.spent > 0


class TestAlgorithmR:
    def test_root_is_first(self, chain):
        tree = kbz_spanning_tree(chain)
        for root in range(chain.n_relations):
            order = kbz_order_for_root(chain, tree, root)
            assert order[0] == root

    def test_orders_are_valid(self, cycle):
        tree = kbz_spanning_tree(cycle)
        for root in range(cycle.n_relations):
            order = kbz_order_for_root(cycle, tree, root)
            assert is_valid_order(order, cycle)

    def test_chain_rooted_at_end_is_the_chain(self, chain):
        """A path rooted at an end admits only one tree-consistent order."""
        tree = kbz_spanning_tree(chain)
        order = kbz_order_for_root(chain, tree, 0)
        assert order.positions == (0, 1, 2, 3, 4)

    def test_star_orders_leaves_by_rank(self):
        graph = star_graph([1000, 100, 200, 50, 400])
        tree = kbz_spanning_tree(graph)
        order = kbz_order_for_root(graph, tree, 0)
        # From the centre, leaves must appear in increasing rank order.
        def leaf_rank(leaf: int) -> float:
            predicate = graph.edge(0, leaf)
            growth = predicate.selectivity * graph.cardinality(leaf)
            cost = 0.5 * graph.cardinality(leaf) / predicate.distinct_values(leaf)
            return (growth - 1.0) / cost

        ranks = [leaf_rank(leaf) for leaf in order.positions[1:]]
        assert ranks == sorted(ranks)

    def test_optimal_on_rooted_star(self):
        """Algorithm R beats or ties every tree-consistent order on a star
        rooted at its centre (optimality of rank ordering)."""
        graph = star_graph([1000, 100, 200, 50, 400])
        tree = kbz_spanning_tree(graph)
        model = MainMemoryCostModel()
        order = kbz_order_for_root(graph, tree, 0)
        kbz_cost = model.plan_cost(order, graph)
        best = min(
            model.plan_cost(o, graph)
            for o in valid_orders(graph)
            if o[0] == 0
        )
        # Rank optimality holds for ASI cost functions; our hash-join model
        # is not exactly ASI, so allow a small slack.
        assert kbz_cost <= best * 1.5


class TestAlgorithmsGT:
    def test_one_order_per_root(self, cycle):
        orders = list(kbz_orders(cycle))
        assert len(orders) == cycle.n_relations
        assert {order[0] for order in orders} == set(range(cycle.n_relations))

    def test_root_sequence_by_size(self, star):
        sequence = kbz_root_sequence(star)
        cards = [star.cardinality(i) for i in sequence]
        assert cards == sorted(cards)

    def test_all_orders_valid_on_generated_query(self, medium_query):
        for order in kbz_orders(medium_query.graph):
            assert is_valid_order(order, medium_query.graph)

    def test_budget_charged_for_rank_work(self, medium_query):
        budget = Budget(limit=1e9)
        list(kbz_orders(medium_query.graph, budget=budget))
        assert budget.spent > 0
