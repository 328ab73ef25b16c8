"""Tests for the main-memory and disk cost models and the static wrapper."""

import pytest

from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import valid_orders


class TestMainMemoryModel:
    def test_join_cost_formula(self):
        model = MainMemoryCostModel(build_cost=2, probe_cost=3, output_cost=5)
        assert model.join_cost(10, 20, 30) == pytest.approx(
            2 * 20 + 3 * 10 + 5 * 30
        )

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError):
            MainMemoryCostModel(build_cost=0)

    def test_plan_cost_positive(self, chain):
        model = MainMemoryCostModel()
        assert model.plan_cost(JoinOrder([0, 1, 2, 3, 4]), chain) > 0

    def test_plan_cost_order_dependent(self, star):
        model = MainMemoryCostModel()
        costs = {model.plan_cost(o, star) for o in valid_orders(star)}
        assert len(costs) > 1

    def test_str_names_model(self):
        assert str(MainMemoryCostModel()) == "memory"


class TestDiskModel:
    def test_pages_ceil(self):
        model = DiskCostModel(tuples_per_page=32)
        assert model.pages(1) == 1
        assert model.pages(32) == 1
        assert model.pages(33) == 2

    def test_no_partitioning_when_inner_fits(self):
        model = DiskCostModel(memory_pages=64)
        assert model.partition_passes(64) == 0

    def test_one_pass_when_slightly_over(self):
        model = DiskCostModel(memory_pages=64)
        assert model.partition_passes(65) == 1

    def test_multi_pass_for_huge_inner(self):
        model = DiskCostModel(memory_pages=4)
        # fanout 3, memory 4 pages: 4 * 3^k >= pages.
        assert model.partition_passes(13) == 2

    def test_in_memory_join_io(self):
        model = DiskCostModel(memory_pages=64, tuples_per_page=10, cpu_weight=1e-9)
        # 100 and 200 tuples -> 10 + 20 pages, both fit, result small.
        cost = model.join_cost(100, 200, 10)
        assert cost == pytest.approx(30, rel=0.01)

    def test_partitioned_join_costs_three_reads(self):
        model = DiskCostModel(memory_pages=4, tuples_per_page=10, cpu_weight=1e-9)
        # Inner 80 tuples -> 8 pages > 4: one partitioning pass.
        cost = model.join_cost(40, 80, 1)
        assert cost == pytest.approx(3 * (4 + 8), rel=0.01)

    def test_large_result_charged_for_materialisation(self):
        model = DiskCostModel(memory_pages=4, tuples_per_page=10, cpu_weight=1e-9)
        small = model.join_cost(40, 40, 10)
        large = model.join_cost(40, 40, 10_000)
        assert large > small + 2 * model.pages(10_000) - 5

    def test_rejects_tiny_memory(self):
        with pytest.raises(ValueError):
            DiskCostModel(memory_pages=1)

    def test_rejects_unit_partition_fanout(self):
        # Two pages would partition with a fanout of one bucket per pass,
        # which never shrinks the inner operand.
        with pytest.raises(ValueError, match="at least 3"):
            DiskCostModel(memory_pages=2)

    def test_smallest_memory_partitions(self):
        model = DiskCostModel(memory_pages=3, tuples_per_page=10)
        # fanout 2, memory 3 pages: 3 * 2^k >= 100 pages needs k = 6.
        assert model.partition_passes(100) == 6
        assert model.join_cost(1e6, 1e6, 1e6) > 0

    def test_plan_cost_positive(self, chain):
        model = DiskCostModel()
        assert model.plan_cost(JoinOrder([0, 1, 2, 3, 4]), chain) > 0

    def test_models_can_disagree_on_ordering(self, medium_query):
        """The two models price the same plan differently (sanity)."""
        memory = MainMemoryCostModel()
        disk = DiskCostModel()
        order = JoinOrder(list(range(medium_query.graph.n_relations)))
        from repro.plans.validity import is_valid_order

        if is_valid_order(order, medium_query.graph):
            assert memory.plan_cost(order, medium_query.graph) != pytest.approx(
                disk.plan_cost(order, medium_query.graph)
            )


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
