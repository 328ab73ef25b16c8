"""Tests for join-order validity (no premature cross products)."""

import random

import pytest

from repro.plans.join_order import JoinOrder
from repro.plans.validity import (
    count_valid_orders,
    deterministic_fallback_order,
    first_invalid_position,
    is_valid_order,
    random_valid_order,
    valid_orders,
)

from tests.conftest import chain_graph, star_graph


class TestChain:
    def test_identity_valid(self, chain):
        assert is_valid_order(JoinOrder([0, 1, 2, 3, 4]), chain)

    def test_reverse_valid(self, chain):
        assert is_valid_order(JoinOrder([4, 3, 2, 1, 0]), chain)

    def test_middle_out_valid(self, chain):
        assert is_valid_order(JoinOrder([2, 1, 0, 3, 4]), chain)

    def test_gap_invalid(self, chain):
        # 0 then 2 skips relation 1: cross product.
        order = JoinOrder([0, 2, 1, 3, 4])
        assert not is_valid_order(order, chain)
        assert first_invalid_position(order, chain) == 1

    def test_first_invalid_position_none_when_valid(self, chain):
        assert first_invalid_position(JoinOrder([0, 1, 2, 3, 4]), chain) is None


class TestStar:
    def test_centre_first_any_order_valid(self, star):
        assert is_valid_order(JoinOrder([0, 4, 2, 1, 3]), star)

    def test_two_leaves_first_invalid(self, star):
        order = JoinOrder([1, 2, 0, 3, 4])
        assert first_invalid_position(order, star) == 1

    def test_leaf_then_centre_valid(self, star):
        assert is_valid_order(JoinOrder([3, 0, 1, 2, 4]), star)


class TestComponents:
    def test_components_contiguous_valid(self, two_components):
        assert is_valid_order(JoinOrder([0, 1, 3, 2, 4]), two_components)

    def test_components_reversed_valid(self, two_components):
        assert is_valid_order(JoinOrder([4, 3, 2, 0, 1]), two_components)

    def test_interleaved_components_invalid(self, two_components):
        # Starts component {0,1}, then jumps to the other before finishing.
        order = JoinOrder([0, 2, 1, 3, 4])
        assert not is_valid_order(order, two_components)

    def test_cross_product_within_component_invalid(self, two_components):
        # 2 then 4 are in the same component but not adjacent.
        order = JoinOrder([2, 4, 3, 0, 1])
        assert not is_valid_order(order, two_components)


class TestErrors:
    def test_length_mismatch(self, chain):
        with pytest.raises(ValueError, match="does not match"):
            is_valid_order(JoinOrder([0, 1]), chain)


class TestRandomValidOrder:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_valid_on_chain(self, chain, seed):
        order = random_valid_order(chain, random.Random(seed))
        assert is_valid_order(order, chain)

    @pytest.mark.parametrize("seed", range(10))
    def test_always_valid_on_components(self, two_components, seed):
        order = random_valid_order(two_components, random.Random(seed))
        assert is_valid_order(order, two_components)

    def test_covers_multiple_starts(self, chain):
        firsts = {
            random_valid_order(chain, random.Random(seed))[0]
            for seed in range(60)
        }
        assert len(firsts) > 1

    def test_deterministic_for_same_rng_state(self, star):
        a = random_valid_order(star, random.Random(3))
        b = random_valid_order(star, random.Random(3))
        assert a == b


class TestEnumeration:
    def test_chain_of_three_count(self):
        graph = chain_graph([10, 20, 30])
        # Valid orders of a 3-chain: 012, 102, 120, 210 -> 4.
        assert count_valid_orders(graph) == 4

    def test_star_of_four_count(self):
        graph = star_graph([10, 20, 30, 40])
        # Star with centre 0 and 3 leaves: centre first (3! = 6 leaf
        # orders) plus leaf-first orders (3 leaves x 2! = 6) -> 12.
        assert count_valid_orders(graph) == 12

    def test_all_enumerated_are_valid(self, chain):
        for order in valid_orders(chain):
            assert is_valid_order(order, chain)


class TestDeterministicFallbackOrder:
    def test_valid_on_every_fixture_graph(
        self, chain, star, cycle, two_components
    ):
        for graph in (chain, star, cycle, two_components):
            order = deterministic_fallback_order(graph)
            assert sorted(order) == list(range(graph.n_relations))
            assert first_invalid_position(order, graph) is None

    def test_stable_across_calls(self, medium_query):
        graph = medium_query.graph
        assert list(deterministic_fallback_order(graph)) == list(
            deterministic_fallback_order(graph)
        )

    def test_starts_each_component_at_its_smallest_relation(self, two_components):
        order = list(deterministic_fallback_order(two_components))
        # Component {3, 2, 4} has the smallest relation (R3, 40 rows) and
        # the smallest minimum, so it comes first, starting at vertex 3.
        assert order[0] == 3
