"""Second wave of property-based tests, covering the newer subsystems."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.catalog.serialization import query_from_dict, query_to_dict
from repro.catalog.join_graph import Query
from repro.core.budget import Budget
from repro.core.bushy_search import random_bushy_neighbor
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.experiments.paperdata import spearman_rank_correlation
from repro.plans.bushy import (
    bushy_cost,
    is_valid_bushy,
    linear_to_bushy,
    random_bushy_tree,
)
from repro.plans.validity import random_valid_order

from tests.test_property_invariants import graphs_with_orders, join_graphs


@given(join_graphs())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip_property(graph):
    query = Query(graph=graph, name="prop", seed=1, metadata={"k": 1})
    restored = query_from_dict(query_to_dict(query))
    model = MainMemoryCostModel()
    order = random_valid_order(graph, random.Random(0))
    assert model.plan_cost(order, graph) == model.plan_cost(
        order, restored.graph
    )


@given(join_graphs(min_relations=3, max_relations=7), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_bushy_moves_preserve_validity_and_leaves(graph, seed):
    rng = random.Random(seed)
    tree = random_bushy_tree(graph, rng)
    leaves = sorted(tree.leaves())
    for _ in range(4):
        tree = random_bushy_neighbor(tree, graph, rng)
        assert is_valid_bushy(tree, graph)
        assert sorted(tree.leaves()) == leaves


@given(graphs_with_orders())
@settings(max_examples=30, deadline=None)
def test_left_deep_bushy_cost_equals_static_linear(graph_order):
    graph, order = graph_order
    model = MainMemoryCostModel()
    static = StaticCostModel(model)
    tree = linear_to_bushy(order)
    assert bushy_cost(tree, graph, model) == static.plan_cost(order, graph)


@given(graphs_with_orders())
@settings(max_examples=30, deadline=None)
def test_static_cost_never_exceeds_propagated(graph_order):
    """Propagation caps only shrink distinct counts, so effective
    selectivities — and plan costs — can only grow."""
    graph, order = graph_order
    model = MainMemoryCostModel()
    static = StaticCostModel(model)
    # Static sizes are unclamped, so allow the tiny clamp-driven slack.
    assert static.plan_cost(order, graph) <= model.plan_cost(order, graph) * (
        1 + 1e-9
    ) + 1e-6


@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_spearman_self_correlation_is_one(values):
    distinct = len(set(values))
    rho = spearman_rank_correlation(values, list(values))
    if distinct > 1:
        assert rho == 1.0
    else:
        assert rho == 0.0


@given(join_graphs(min_relations=2, max_relations=8), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_budget_monotonicity_of_ii(graph, seed):
    """More budget never yields a worse plan (anytime property)."""
    from repro.core.optimizer import optimize

    small = optimize(
        graph, method="II", budget=Budget(limit=200), seed=seed
    )
    large = optimize(
        graph, method="II", budget=Budget(limit=2000), seed=seed
    )
    assert large.cost <= small.cost + 1e-9
