"""Tests for cardinality estimation and distinct-value propagation."""

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.cost.cardinality import combined_selectivity, prefix_cardinalities
from repro.plans.join_order import JoinOrder
from repro.plans.join_tree import build_join_tree

from tests.conftest import chain_graph, make_relations


class TestStaticHelpers:
    def test_combined_selectivity_empty_is_one(self):
        assert combined_selectivity([]) == 1.0

    def test_combined_selectivity_multiplies(self):
        predicates = [JoinPredicate(0, 1, 10, 5), JoinPredicate(0, 2, 4, 20)]
        assert combined_selectivity(predicates) == pytest.approx(
            (1 / 10) * (1 / 20)
        )


class TestPrefixCardinalities:
    def test_first_entry_is_first_relation(self, chain):
        sizes = prefix_cardinalities(JoinOrder([2, 1, 0, 3, 4]), chain)
        assert sizes[0] == chain.cardinality(2)
        assert len(sizes) == chain.n_relations

    def test_sizes_at_least_one(self, chain):
        sizes = prefix_cardinalities(JoinOrder([0, 1, 2, 3, 4]), chain)
        assert all(size >= 1.0 for size in sizes)

    def test_simple_chain_math(self):
        graph = chain_graph([100, 200, 300])
        # Edge distinct values: (50, 100) and (100, 150).
        sizes = prefix_cardinalities(JoinOrder([0, 1, 2]), graph)
        assert sizes[0] == 100.0
        assert sizes[1] == pytest.approx(100 * 200 / 100)
        # Join 2: intermediate carries R1's column (distinct 100, capped by
        # size 200 -> stays 100); inner distinct 150 -> J = 1/150.
        assert sizes[2] == pytest.approx(200 * 300 / 150)


class TestDistinctPropagation:
    @staticmethod
    def _capping_graph() -> JoinGraph:
        """R0 tiny; joining R0 first caps R1's 500-distinct column."""
        relations = make_relations([10, 1000, 2000])
        predicates = [
            JoinPredicate(0, 1, 10, 400),
            JoinPredicate(1, 2, 500, 500),
        ]
        return JoinGraph(relations, predicates)

    def test_cap_inflates_later_join(self):
        graph = self._capping_graph()
        # Order (0 1 2): after joining R0 |><| R1 the intermediate has
        # 10*1000/400 = 25 tuples, capping R1's 500-distinct column at 25.
        # The last join then sees J = 1/max(25, 500) = 1/500 (inner side
        # dominates) -> no inflation from this direction...
        sizes_01 = prefix_cardinalities(JoinOrder([0, 1, 2]), graph)
        assert sizes_01[1] == pytest.approx(25.0)
        assert sizes_01[2] == pytest.approx(25 * 2000 / 500)

    def test_cap_binds_when_outer_side_dominates(self):
        relations = make_relations([10, 1000, 2000])
        predicates = [
            JoinPredicate(0, 1, 10, 400),
            JoinPredicate(1, 2, 500, 100),  # outer side has MORE distinct
        ]
        graph = JoinGraph(relations, predicates)
        sizes = prefix_cardinalities(JoinOrder([0, 1, 2]), graph)
        # Intermediate size 25 caps R1's 500 down to 25; J becomes
        # 1/max(25, 100) = 1/100 instead of the base 1/500.
        assert sizes[2] == pytest.approx(25 * 2000 / 100)
        # Without the cap the estimate would have been 25 * 2000 / 500.
        assert sizes[2] > 25 * 2000 / 500

    def test_opposite_order_avoids_cap(self):
        relations = make_relations([10, 1000, 2000])
        predicates = [
            JoinPredicate(0, 1, 10, 400),
            JoinPredicate(1, 2, 500, 100),
        ]
        graph = JoinGraph(relations, predicates)
        # Joining R2 first consumes the 500-distinct column before any
        # small intermediate can cap it.
        sizes = prefix_cardinalities(JoinOrder([2, 1, 0]), graph)
        assert sizes[1] == pytest.approx(2000 * 1000 / 500)

    def test_walk_plan_matches_prefix_sizes(self, cycle):
        order = JoinOrder([0, 1, 2, 3])
        nodes = build_join_tree(order, cycle).nodes
        sizes = prefix_cardinalities(order, cycle)
        assert [node.result_cardinality for node in nodes] == sizes[1:]

    def test_cycle_uses_all_predicates(self, cycle):
        order = JoinOrder([0, 1, 2, 3])
        nodes = build_join_tree(order, cycle).nodes
        # Final join of the cycle closes two predicates (to 2 and to 0).
        assert len(nodes[-1].predicates) == 2


class TestOverflowGuards:
    """Pathological statistics must clamp or raise, never return inf/NaN."""

    def test_clamp_passes_normal_values(self):
        from repro.cost.cardinality import clamp_cardinality

        assert clamp_cardinality(1234.5) == 1234.5

    def test_clamp_floors_at_one(self):
        from repro.cost.cardinality import clamp_cardinality

        assert clamp_cardinality(0.25) == 1.0
        assert clamp_cardinality(-7.0) == 1.0

    def test_clamp_caps_huge_estimates(self):
        from repro.cost.cardinality import MAX_CARDINALITY, clamp_cardinality

        assert clamp_cardinality(1e300) == MAX_CARDINALITY

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_clamp_rejects_non_finite(self, bad):
        from repro.cost.cardinality import CostOverflowError, clamp_cardinality

        with pytest.raises(CostOverflowError):
            clamp_cardinality(bad)

    def test_huge_n_star_of_huge_relations_stays_finite(self):
        # 24 relations of 1e40 rows joined on key-free predicates: the raw
        # product is 1e960, far past float range.  Every prefix must stay
        # finite and capped.
        import math

        from repro.cost.cardinality import MAX_CARDINALITY
        from repro.cost.memory import MainMemoryCostModel

        n = 24
        relations = [Relation(f"R{i}", 1e40) for i in range(n)]
        predicates = [JoinPredicate(0, i, 2.0, 2.0) for i in range(1, n)]
        graph = JoinGraph(relations, predicates)
        order = JoinOrder(range(n))
        sizes = prefix_cardinalities(order, graph)
        assert all(math.isfinite(s) for s in sizes)
        assert all(1.0 <= s <= MAX_CARDINALITY for s in sizes)
        assert math.isfinite(MainMemoryCostModel().plan_cost(order, graph))

    def test_selectivity_above_one_is_clamped(self):
        # Fractional distinct counts would make 1/max(d_l, d_r) exceed 1.0
        # (a result larger than the cross product) without the clamp.
        predicate = JoinPredicate(0, 1, left_distinct=0.5, right_distinct=0.25)
        assert predicate.selectivity == 1.0

    def test_nonpositive_selectivity_sources_are_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate(0, 1, left_distinct=0.0, right_distinct=10.0)
        with pytest.raises(ValueError):
            JoinPredicate(0, 1, left_distinct=-5.0, right_distinct=10.0)

    def test_broken_model_cannot_return_non_finite_plan_cost(self, chain):
        from repro.cost.base import CostModel, CostOverflowError

        class SquaringModel(CostModel):
            name = "squaring"

            def join_cost(self, outer_size, inner_size, result_size):
                return 1e308 * outer_size * inner_size  # overflows to inf

        with pytest.raises(CostOverflowError, match="non-finite"):
            SquaringModel().plan_cost(JoinOrder(range(5)), chain_graph())
