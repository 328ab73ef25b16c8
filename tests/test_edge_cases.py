"""Edge cases and failure injection across the stack."""

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.budget import Budget
from repro.core.combinations import compare_methods
from repro.core.optimizer import available_methods, optimize
from repro.core.state import Evaluator
from repro.cost.base import CostModel
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import is_valid_order
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query


def two_relation_graph():
    return JoinGraph(
        [Relation("A", 10), Relation("B", 20)],
        [JoinPredicate(0, 1, 5, 10)],
    )


class TestTinyQueries:
    def test_single_join_query(self):
        query = generate_query(DEFAULT_SPEC, n_joins=1, seed=0)
        result = optimize(query, method="IAI", time_factor=1, units_per_n2=5)
        assert len(result.order) == 2
        assert result.cost > 0

    @pytest.mark.parametrize("method", ["II", "SA", "AGI", "KBI", "RANDOM"])
    def test_two_relations_every_method(self, method):
        graph = two_relation_graph()
        result = optimize(graph, method=method, time_factor=1, units_per_n2=10)
        assert is_valid_order(result.order, graph)

    @pytest.mark.parametrize("workers", (None, 2), ids=("serial", "w2"))
    @pytest.mark.parametrize(
        "model", (MainMemoryCostModel(), DiskCostModel()), ids=lambda m: m.name
    )
    @pytest.mark.parametrize("method", available_methods())
    def test_single_relation_every_method(self, method, model, workers):
        # One relation has one plan and no join: every path returns it,
        # equal to what the resilient fallback chain reports.
        graph = JoinGraph([Relation("A", 100)], [])
        result = optimize(graph, method=method, model=model, workers=workers)
        assert result == optimize(
            graph, method=method, model=model, resilient=True
        )
        assert result.order == JoinOrder([0])
        assert result.cost == 0.0
        assert result.units_spent == 0.0
        assert result.n_evaluations == 0

    @pytest.mark.parametrize("resilient", (False, True))
    def test_single_relation_still_validates_method(self, resilient):
        graph = JoinGraph([Relation("A", 100)], [])
        with pytest.raises(ValueError, match="unknown method"):
            optimize(graph, method="NOPE", resilient=resilient)

    def test_single_relation_compare_methods(self):
        graph = JoinGraph([Relation("A", 100)], [])
        serial = compare_methods(graph, methods=("II", "SA", "EXACT"))
        assert compare_methods(
            graph, methods=("II", "SA", "EXACT"), workers=2
        ) == serial
        assert {result.cost for result in serial.values()} == {0.0}

    def test_two_singleton_components(self):
        graph = JoinGraph([Relation("A", 10), Relation("B", 20)], [])
        result = optimize(graph, method="II", time_factor=1, units_per_n2=10)
        # Pure cross product; smaller relation first.
        assert result.order == JoinOrder([0, 1])
        assert result.cost > 0

    def test_singleton_plus_pair_components(self):
        graph = JoinGraph(
            [Relation("A", 10), Relation("B", 20), Relation("C", 5)],
            [JoinPredicate(0, 1, 5, 10)],
        )
        result = optimize(graph, method="II", time_factor=2, units_per_n2=10)
        assert is_valid_order(result.order, graph)
        assert sorted(result.order) == [0, 1, 2]


class _FailingModel(CostModel):
    """Raises after a fixed number of join evaluations."""

    name = "failing"

    def __init__(self, fail_after: int) -> None:
        self.fail_after = fail_after
        self.calls = 0

    def join_cost(self, outer_size, inner_size, result_size):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("injected cost-model failure")
        return outer_size + inner_size + result_size


class TestFailureInjection:
    def test_cost_model_failure_propagates(self, small_query):
        """A broken cost model fails loudly, not silently."""
        model = _FailingModel(fail_after=50)
        with pytest.raises(RuntimeError, match="injected"):
            optimize(
                small_query, method="II", model=model, time_factor=1, units_per_n2=10
            )

    def test_evaluator_usable_after_model_failure(self, chain):
        model = _FailingModel(fail_after=4)
        evaluator = Evaluator(chain, model, Budget(limit=1e6))
        evaluator.evaluate(JoinOrder([0, 1, 2, 3, 4]))
        with pytest.raises(RuntimeError):
            evaluator.evaluate(JoinOrder([4, 3, 2, 1, 0]))
        # The first (successful) evaluation is still the recorded best.
        assert evaluator.best is not None
        model.fail_after = 10**9
        evaluator.evaluate(JoinOrder([2, 1, 0, 3, 4]))
        # The failed evaluation is not counted; the two successes are.
        assert evaluator.n_evaluations == 2


class TestExtremeStatistics:
    def test_huge_cardinalities_no_overflow(self):
        graph = JoinGraph(
            [Relation("A", 10**12), Relation("B", 10**12)],
            [JoinPredicate(0, 1, 1, 1)],  # cross-product-like selectivity
        )
        cost = MainMemoryCostModel().plan_cost(JoinOrder([0, 1]), graph)
        assert cost > 0
        assert cost < float("inf")

    def test_distinct_of_one_means_selectivity_one(self):
        predicate = JoinPredicate(0, 1, 1, 1)
        assert predicate.selectivity == 1.0

    def test_fully_selective_relation(self):
        relation = Relation("A", 1000).with_selections(0.001, 0.001)
        assert relation.cardinality == 1.0

    def test_dense_cyclic_graph_optimizes(self):
        relations = [Relation(f"R{i}", 100 + i) for i in range(6)]
        predicates = [
            JoinPredicate(a, b, 50, 50)
            for a in range(6)
            for b in range(a + 1, 6)
        ]
        graph = JoinGraph(relations, predicates)
        result = optimize(graph, method="IAI", time_factor=1, units_per_n2=10)
        assert is_valid_order(result.order, graph)


class TestLocalImprovementFullWindow:
    def test_cluster_equals_relations(self, star):
        from repro.core.local_improvement import local_improve
        from repro.core.state import Evaluation

        evaluator = Evaluator(star, MainMemoryCostModel(), Budget(limit=1e9))
        order = JoinOrder([0, 1, 2, 3, 4])
        start = Evaluation(order, evaluator.evaluate(order))
        improved = local_improve(
            start, evaluator, cluster_size=star.n_relations, overlap=0
        )
        # Exhaustive over the whole window: this is the global optimum.
        from repro.plans.validity import valid_orders

        best = min(
            MainMemoryCostModel().plan_cost(o, star) for o in valid_orders(star)
        )
        assert improved.cost == pytest.approx(best)
