"""Tests for the exact System-R dynamic program and the static model."""

import pytest

from repro.core.budget import Budget, BudgetExhausted
from repro.core.dynamic_programming import dp_optimal_order
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import is_valid_order, valid_orders
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query

from tests.conftest import chain_graph, two_component_graph


class TestStaticCostModel:
    def test_join_cost_delegates(self):
        inner = MainMemoryCostModel()
        static = StaticCostModel(inner)
        assert static.join_cost(10, 20, 30) == inner.join_cost(10, 20, 30)

    def test_name(self):
        assert StaticCostModel(MainMemoryCostModel()).name == "static-memory"

    def test_no_propagation_effect(self):
        """Where propagation inflates, the static model does not."""
        from repro.catalog.join_graph import JoinGraph
        from repro.catalog.predicates import JoinPredicate
        from repro.catalog.relation import Relation

        relations = [Relation("A", 10), Relation("B", 1000), Relation("C", 2000)]
        predicates = [
            JoinPredicate(0, 1, 10, 400),
            JoinPredicate(1, 2, 500, 100),
        ]
        graph = JoinGraph(relations, predicates)
        inner = MainMemoryCostModel()
        static = StaticCostModel(inner)
        order = JoinOrder([0, 1, 2])
        assert static.plan_cost(order, graph) < inner.plan_cost(order, graph)

    def test_final_size_subset_determined(self, cycle):
        """All orders of the same relation set share the final size."""
        static = StaticCostModel(MainMemoryCostModel())
        sizes = set()
        for order in valid_orders(cycle):
            positions = order.positions
            size = cycle.cardinality(positions[0])
            for position in range(1, len(positions)):
                size, _ = static.step(
                    cycle, positions[:position], size, positions[position]
                )
            sizes.add(round(size, 6))
        assert len(sizes) == 1


class TestDPOptimalOrder:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_vs_enumeration(self, seed):
        query = generate_query(DEFAULT_SPEC, n_joins=6, seed=seed)
        graph = query.graph
        model = MainMemoryCostModel()
        static = StaticCostModel(model)
        best = min(static.plan_cost(order, graph) for order in valid_orders(graph))
        result = dp_optimal_order(graph, model)
        assert result.cost == pytest.approx(best)

    def test_order_is_valid(self, cycle):
        result = dp_optimal_order(cycle, MainMemoryCostModel())
        assert is_valid_order(result.order, cycle)

    def test_recost_uses_original_model(self, chain):
        model = MainMemoryCostModel()
        result = dp_optimal_order(chain, model)
        assert result.recost == pytest.approx(model.plan_cost(result.order, chain))

    def test_single_relation(self):
        graph = chain_graph([42])
        result = dp_optimal_order(graph, MainMemoryCostModel())
        assert result.order == JoinOrder([0])
        assert result.cost == 0.0

    def test_refuses_large_queries(self):
        query = generate_query(DEFAULT_SPEC, n_joins=25, seed=0)
        with pytest.raises(ValueError, match="2\\^26"):
            dp_optimal_order(query.graph, MainMemoryCostModel())

    def test_max_relations_override(self):
        query = generate_query(DEFAULT_SPEC, n_joins=10, seed=0)
        result = dp_optimal_order(
            query.graph, MainMemoryCostModel(), max_relations=11
        )
        assert result.n_subsets > 0

    def test_refuses_disconnected(self):
        with pytest.raises(ValueError, match="connected"):
            dp_optimal_order(two_component_graph(), MainMemoryCostModel())

    def test_budget_charged_and_enforced(self, chain):
        budget = Budget(limit=1e9)
        result = dp_optimal_order(chain, MainMemoryCostModel(), budget=budget)
        assert budget.spent == pytest.approx(result.n_cost_evaluations)
        with pytest.raises(BudgetExhausted):
            dp_optimal_order(chain, MainMemoryCostModel(), budget=Budget(limit=2))

    def test_subset_count_chain(self, chain):
        """A 5-chain has exactly the contiguous-interval subsets."""
        result = dp_optimal_order(chain, MainMemoryCostModel())
        # Connected subsets of a path of 5 = 5+4+3+2+1 = 15.
        assert result.n_subsets == 15

    def test_budget_death_mid_layer_raises_by_default(self):
        """A truncated table must never be presented as an optimum."""
        query = generate_query(DEFAULT_SPEC, n_joins=7, seed=5)
        # Enough budget to finish the 2-subset layer but die inside a
        # later one: the full-set entry either does not exist or is
        # unproven, so the default contract is to raise.
        with pytest.raises(BudgetExhausted):
            dp_optimal_order(
                query.graph, MainMemoryCostModel(), budget=Budget(limit=40)
            )

    def test_budget_death_partial_returns_valid_incomplete_result(self):
        query = generate_query(DEFAULT_SPEC, n_joins=7, seed=5)
        model = MainMemoryCostModel()
        result = dp_optimal_order(
            query.graph, model, budget=Budget(limit=40), allow_partial=True
        )
        assert result.complete is False
        assert is_valid_order(result.order, query.graph)
        static = StaticCostModel(model)
        assert result.cost == pytest.approx(
            static.plan_cost(result.order, query.graph)
        )
        assert result.recost == pytest.approx(
            model.plan_cost(result.order, query.graph)
        )

    def test_budget_death_partial_is_deterministic(self):
        query = generate_query(DEFAULT_SPEC, n_joins=7, seed=5)
        model = MainMemoryCostModel()
        runs = [
            dp_optimal_order(
                query.graph, model, budget=Budget(limit=40), allow_partial=True
            )
            for _ in range(3)
        ]
        assert all(run.order == runs[0].order for run in runs)
        assert all(run.cost == runs[0].cost for run in runs)
        assert all(
            run.n_cost_evaluations == runs[0].n_cost_evaluations for run in runs
        )

    def test_budget_death_partial_records_failure(self):
        from repro.robustness.resilience import FailureLog

        query = generate_query(DEFAULT_SPEC, n_joins=7, seed=5)
        log = FailureLog()
        dp_optimal_order(
            query.graph,
            MainMemoryCostModel(),
            budget=Budget(limit=40),
            allow_partial=True,
            failure_log=log,
        )
        assert len(log.records) == 1
        record = log.records[0]
        assert record.kind == "budget-exhausted"
        assert record.stage == "dp"
        assert "priced" in record.detail

    def test_generous_budget_partial_flag_is_complete(self):
        """allow_partial changes nothing when the budget suffices."""
        query = generate_query(DEFAULT_SPEC, n_joins=6, seed=2)
        model = MainMemoryCostModel()
        full = dp_optimal_order(query.graph, model)
        partial_ok = dp_optimal_order(
            query.graph,
            model,
            budget=Budget(limit=1e9),
            allow_partial=True,
        )
        assert partial_ok.complete is True
        assert partial_ok.order == full.order
        assert partial_ok.cost == full.cost

    def test_budget_death_in_first_priced_layer(self):
        """Even a budget too small for one extension yields a valid order."""
        query = generate_query(DEFAULT_SPEC, n_joins=6, seed=0)
        result = dp_optimal_order(
            query.graph,
            MainMemoryCostModel(),
            budget=Budget(limit=0.5),
            allow_partial=True,
        )
        assert result.complete is False
        assert is_valid_order(result.order, query.graph)

    def test_beats_or_ties_every_heuristic(self):
        """DP's static-world optimum lower-bounds the heuristics."""
        from repro.core.augmentation import augmentation_orders

        query = generate_query(DEFAULT_SPEC, n_joins=8, seed=3)
        graph = query.graph
        model = MainMemoryCostModel()
        static = StaticCostModel(model)
        result = dp_optimal_order(graph, model)
        for order in augmentation_orders(graph):
            assert result.cost <= static.plan_cost(order, graph) + 1e-9
