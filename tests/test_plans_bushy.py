"""Tests for bushy join trees."""

import random

import pytest

from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.plans.bushy import (
    BushyTree,
    bushy_cost,
    is_valid_bushy,
    join,
    leaf,
    linear_to_bushy,
    random_bushy_tree,
    tree_sizes,
)
from repro.plans.join_order import JoinOrder


class TestConstruction:
    def test_leaf(self):
        node = leaf(3)
        assert node.is_leaf
        assert node.relations == frozenset((3,))

    def test_join_node(self):
        tree = join(leaf(0), leaf(1))
        assert not tree.is_leaf
        assert tree.relations == frozenset((0, 1))

    def test_rejects_leaf_with_children(self):
        with pytest.raises(ValueError):
            BushyTree(relation=0, left=leaf(1), right=leaf(2))

    def test_rejects_half_internal(self):
        with pytest.raises(ValueError):
            BushyTree(left=leaf(1), right=None)

    def test_leaves_in_order(self):
        tree = join(join(leaf(2), leaf(0)), leaf(1))
        assert list(tree.leaves()) == [2, 0, 1]

    def test_depth(self):
        assert leaf(0).depth() == 0
        assert join(leaf(0), leaf(1)).depth() == 1
        assert join(join(leaf(0), leaf(1)), leaf(2)).depth() == 2

    def test_render(self, chain):
        tree = join(leaf(0), leaf(1))
        assert tree.render() == "(R0 |><| R1)"
        assert tree.render(chain) == "(R0 |><| R1)"


class TestLinearToBushy:
    def test_shape_is_left_deep(self):
        tree = linear_to_bushy(JoinOrder([2, 0, 1, 3]))
        assert tree.is_left_deep()
        assert list(tree.leaves()) == [2, 0, 1, 3]

    def test_balanced_tree_is_not_left_deep(self):
        tree = join(join(leaf(0), leaf(1)), join(leaf(2), leaf(3)))
        assert not tree.is_left_deep()


class TestValidity:
    def test_left_deep_of_valid_order_is_valid(self, chain):
        tree = linear_to_bushy(JoinOrder([0, 1, 2, 3, 4]))
        assert is_valid_bushy(tree, chain)

    def test_cross_product_detected(self, chain):
        # (R0 |><| R2) crosses the chain.
        tree = join(join(leaf(0), leaf(2)), join(leaf(1), join(leaf(3), leaf(4))))
        assert not is_valid_bushy(tree, chain)

    def test_balanced_valid_tree_on_chain(self, chain):
        # ((R0 R1) (R2... no: (R0 R1) joined with (R2 (R3 R4)) crosses via 1-2.
        tree = join(
            join(leaf(0), leaf(1)), join(leaf(2), join(leaf(3), leaf(4)))
        )
        assert is_valid_bushy(tree, chain)


class TestSizesAndCost:
    def test_left_deep_cost_matches_static_linear(self, chain):
        """A left-deep bushy tree costs exactly its linear equivalent
        under the static model."""
        order = JoinOrder([0, 1, 2, 3, 4])
        tree = linear_to_bushy(order)
        model = MainMemoryCostModel()
        static = StaticCostModel(model)
        assert bushy_cost(tree, chain, model) == pytest.approx(
            static.plan_cost(order, chain)
        )

    def test_tree_sizes_root_is_total(self, chain):
        tree = linear_to_bushy(JoinOrder([0, 1, 2, 3, 4]))
        sizes = tree_sizes(tree, chain)
        model = StaticCostModel(MainMemoryCostModel())
        size = chain.cardinality(0)
        for position in range(1, 5):
            size, _ = model.step(chain, range(position), size, position)
        assert sizes[tree] == pytest.approx(size)

    def test_leaf_size_is_cardinality(self, chain):
        node = leaf(2)
        sizes = tree_sizes(node, chain)
        assert sizes[node] == chain.cardinality(2)

    def test_commuted_children_same_size_different_cost(self, chain):
        model = MainMemoryCostModel()
        a = join(leaf(0), leaf(1))
        b = join(leaf(1), leaf(0))
        assert tree_sizes(a, chain)[a] == pytest.approx(tree_sizes(b, chain)[b])
        # Asymmetric cost model: outer/inner roles matter.
        assert bushy_cost(a, chain, model) != pytest.approx(
            bushy_cost(b, chain, model)
        )


class TestRandomBushyTree:
    @pytest.mark.parametrize("seed", range(10))
    def test_always_valid(self, cycle, seed):
        tree = random_bushy_tree(cycle, random.Random(seed))
        assert is_valid_bushy(tree, cycle)
        assert tree.relations == frozenset(range(cycle.n_relations))

    def test_produces_bushy_shapes(self, star):
        shapes = {
            random_bushy_tree(star, random.Random(seed)).is_left_deep()
            for seed in range(30)
        }
        assert False in shapes  # at least one genuinely bushy tree

    def test_rejects_disconnected(self, two_components):
        with pytest.raises(ValueError, match="connected"):
            random_bushy_tree(two_components, random.Random(0))

    def test_deterministic(self, chain):
        a = random_bushy_tree(chain, random.Random(4))
        b = random_bushy_tree(chain, random.Random(4))
        assert a == b
