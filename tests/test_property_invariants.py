"""Property-based tests (hypothesis) on the core invariants.

Random small join graphs are generated as hypothesis strategies; the
invariants cover validity closure of the move set, estimator sanity,
heuristic output validity, and the never-worse guarantee of local
improvement.
"""

from __future__ import annotations

import math
import pickle
import random

from hypothesis import given, settings, strategies as st

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.augmentation import AugmentationCriterion, augment_order
from repro.core.budget import Budget
from repro.core.combinations import available_method_names, compare_methods
from repro.core.exact import exact_optimum, optimality_gap
from repro.core.kbz import kbz_orders
from repro.core.local_improvement import local_improve
from repro.core.moves import MoveSet
from repro.core.state import Evaluation, Evaluator
from repro.cost.cardinality import (
    QueryContext,
    clamp_cardinality,
    extend_state,
    prefix_cardinalities,
    start_state,
)
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import is_valid_order, random_valid_order


@st.composite
def join_graphs(draw, min_relations=2, max_relations=8):
    """A random connected join graph with plausible statistics."""
    n = draw(st.integers(min_relations, max_relations))
    cardinalities = draw(
        st.lists(st.integers(2, 50_000), min_size=n, max_size=n)
    )
    relations = [Relation(f"R{i}", c) for i, c in enumerate(cardinalities)]
    edges: set[tuple[int, int]] = set()
    for i in range(1, n):
        partner = draw(st.integers(0, i - 1))
        edges.add((partner, i))
    n_extra = draw(st.integers(0, max(0, n - 2)))
    for _ in range(n_extra):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(0, n - 1))
        if a != b:
            edges.add((min(a, b), max(a, b)))
    predicates = []
    for a, b in sorted(edges):
        left_distinct = draw(st.integers(1, cardinalities[a]))
        right_distinct = draw(st.integers(1, cardinalities[b]))
        predicates.append(JoinPredicate(a, b, left_distinct, right_distinct))
    return JoinGraph(relations, predicates)


@st.composite
def graphs_with_orders(draw):
    graph = draw(join_graphs())
    seed = draw(st.integers(0, 2**16))
    order = random_valid_order(graph, random.Random(seed))
    return graph, order


@given(graphs_with_orders())
@settings(max_examples=60, deadline=None)
def test_random_valid_order_is_valid(graph_order):
    graph, order = graph_order
    assert is_valid_order(order, graph)


@given(graphs_with_orders(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_moves_preserve_validity(graph_order, seed):
    graph, order = graph_order
    move_set = MoveSet()
    rng = random.Random(seed)
    for _ in range(5):
        order = move_set.random_neighbor(order, graph, rng)
        assert is_valid_order(order, graph)


@given(graphs_with_orders())
@settings(max_examples=60, deadline=None)
def test_prefix_cardinalities_positive_and_complete(graph_order):
    graph, order = graph_order
    sizes = prefix_cardinalities(order, graph)
    assert len(sizes) == graph.n_relations
    assert all(size >= 1.0 for size in sizes)


@given(graphs_with_orders())
@settings(max_examples=60, deadline=None)
def test_final_cardinality_near_order_independent_without_caps(graph_order):
    """With propagation the *final* size may differ across orders, but it
    is never below the static no-propagation estimate."""
    graph, order = graph_order
    from repro.cost.cardinality import combined_selectivity

    static = graph.cardinality(order[0])
    placed = [order[0]]
    for position in range(1, len(order)):
        inner = order[position]
        predicates = graph.edges_between(placed, inner)
        static = max(
            1.0,
            static * graph.cardinality(inner) * combined_selectivity(predicates),
        )
        placed.append(inner)
    propagated = prefix_cardinalities(order, graph)[-1]
    assert propagated >= static - 1e-6 * static - 1e-9


@given(graphs_with_orders())
@settings(max_examples=40, deadline=None)
def test_plan_costs_positive_under_both_models(graph_order):
    graph, order = graph_order
    assert MainMemoryCostModel().plan_cost(order, graph) > 0
    assert DiskCostModel().plan_cost(order, graph) > 0


def _reference_walk(graph, order, model):
    """Prefix sizes and plan cost recomputed from the predicates.

    Reads ``graph.adjacency`` directly, never the compiled per-edge
    table, so a wrong fold in that table cannot hide here.  A placed
    neighbor's cap is its cardinality lowered by every intermediate size
    since it was placed.
    """
    placed_at = {order[0]: 0}
    sizes = [clamp_cardinality(graph.cardinality(order[0]))]
    total = 0.0
    for position in range(1, len(order)):
        inner = order[position]
        selectivity = 1.0
        for neighbor, predicate in graph.adjacency(inner).items():
            if neighbor not in placed_at:
                continue
            cap = min([graph.cardinality(neighbor)] + sizes[placed_at[neighbor]:])
            selectivity *= 1.0 / max(
                min(predicate.distinct_values(neighbor), cap),
                predicate.distinct_values(inner),
                1.0,
            )
        size = sizes[-1]
        inner_size = graph.cardinality(inner)
        result = clamp_cardinality(size * inner_size * selectivity)
        total += model.join_cost(size, inner_size, result)
        sizes.append(result)
        placed_at[inner] = position
    return sizes, total


@given(graphs_with_orders(), st.integers(0, 2**16), st.booleans())
@settings(max_examples=80, deadline=None)
def test_recurrence_matches_predicate_reference(graph_order, seed, shuffle):
    """``prefix_cardinalities`` and ``plan_cost`` equal, bit for bit, the
    recurrence written out from the predicates, on valid orders and on
    orders with cross products."""
    graph, order = graph_order
    if shuffle:
        positions = list(order)
        random.Random(seed).shuffle(positions)
        order = JoinOrder(positions)
    for model in (MainMemoryCostModel(), DiskCostModel()):
        sizes, total = _reference_walk(graph, order, model)
        assert prefix_cardinalities(order, graph) == sizes
        assert model.plan_cost(order, graph) == total


def _relabeled(graph, permutation):
    """``graph`` with relation ``k`` renamed ``permutation[k]``."""
    relations = [None] * graph.n_relations
    for old, new in enumerate(permutation):
        relations[new] = graph.relations[old]
    predicates = [
        JoinPredicate(
            permutation[p.left], permutation[p.right],
            p.left_distinct, p.right_distinct,
        )
        for p in graph.predicates
    ]
    return JoinGraph(relations, predicates)


@given(
    join_graphs(max_relations=9),
    st.integers(0, 2**16),
    st.sampled_from(["memory", "disk"]),
)
@settings(max_examples=40, deadline=None)
def test_exact_optimum_invariant_under_relabeling(graph, seed, model_name):
    """Renaming the relations leaves EXACT's optimum cost unchanged, up
    to the reassociation of the selectivity product, and the relabeled
    optimum maps back to an order that prices the same."""
    model = {"memory": MainMemoryCostModel(), "disk": DiskCostModel()}[
        model_name
    ]
    permutation = list(range(graph.n_relations))
    random.Random(seed).shuffle(permutation)
    relabeled = _relabeled(graph, permutation)
    original = exact_optimum(graph, model)
    renamed = exact_optimum(relabeled, model)
    assert math.isclose(renamed.cost, original.cost, rel_tol=1e-12)
    inverse = {new: old for old, new in enumerate(permutation)}
    mapped = JoinOrder([inverse[vertex] for vertex in renamed.order])
    assert is_valid_order(mapped, graph)
    assert math.isclose(
        model.plan_cost(mapped, graph), original.cost, rel_tol=1e-12
    )


@given(
    join_graphs(max_relations=12),
    st.integers(0, 2**16),
    st.sampled_from(["memory", "disk"]),
)
@settings(max_examples=25, deadline=None)
def test_every_method_gap_at_least_one(graph, seed, model_name):
    """No registered method beats EXACT's optimum: every gap is >= 1.0,
    exactly."""
    model = {"memory": MainMemoryCostModel(), "disk": DiskCostModel()}[
        model_name
    ]
    exact = exact_optimum(graph, model)
    results = compare_methods(
        graph,
        methods=available_method_names(),
        model=model,
        time_factor=1.0,
        seed=seed,
    )
    for method, result in results.items():
        assert optimality_gap(result.cost, exact.cost) >= 1.0, method


def _state_fields(state):
    return (
        state.mask,
        repr(state.size),
        repr(state.cost),
        dict(state.caps),
        dict(state.unplaced),
    )


@given(graphs_with_orders())
@settings(max_examples=60, deadline=None)
def test_costing_is_pure(graph_order):
    """Costing reads only its arguments and never writes them.

    ``plan_cost`` repeats bit for bit and leaves the graph and order
    unchanged; an ``extend_state`` chain leaves every input state as it
    was, and repeating a step gives an equal state.  The search relies on
    both: the incremental walk must agree with ``plan_cost``, and the
    B&B frontier shares prefix states between children.
    """
    graph, order = graph_order
    graph_bytes = pickle.dumps(graph)
    order_bytes = pickle.dumps(order)
    for model in (
        MainMemoryCostModel(),
        DiskCostModel(),
        StaticCostModel(MainMemoryCostModel()),
    ):
        first = model.plan_cost(order, graph)
        assert repr(model.plan_cost(order, graph)) == repr(first)
        assert pickle.dumps(graph) == graph_bytes
        assert pickle.dumps(order) == order_bytes
    for model in (MainMemoryCostModel(), DiskCostModel()):
        context = QueryContext(graph, model)
        states = [start_state(context, order[0])]
        for inner in order[1:]:
            before = [_state_fields(state) for state in states]
            step = extend_state(context, states[-1], inner)
            again = extend_state(context, states[-1], inner)
            assert _state_fields(again) == _state_fields(step)
            assert [_state_fields(state) for state in states] == before
            states.append(step)


@given(join_graphs(), st.sampled_from(list(AugmentationCriterion)))
@settings(max_examples=60, deadline=None)
def test_augmentation_orders_always_valid(graph, criterion):
    for first in range(graph.n_relations):
        order = augment_order(graph, first, criterion)
        assert is_valid_order(order, graph)
        assert order[0] == first


@given(join_graphs(min_relations=3))
@settings(max_examples=40, deadline=None)
def test_kbz_orders_always_valid(graph):
    for order in kbz_orders(graph):
        assert is_valid_order(order, graph)


@given(graphs_with_orders(), st.sampled_from([(2, 0), (2, 1), (3, 2)]))
@settings(max_examples=30, deadline=None)
def test_local_improvement_never_worse(graph_order, strategy):
    graph, order = graph_order
    cluster, overlap = strategy
    if cluster > graph.n_relations:
        return
    evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=1e9))
    start = Evaluation(order, evaluator.evaluate(order))
    improved = local_improve(start, evaluator, cluster, overlap, max_passes=3)
    assert improved.cost <= start.cost + 1e-9
    assert is_valid_order(improved.order, graph)


@given(graphs_with_orders(), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_swap_and_insert_are_involutive_enough(graph_order, seed):
    """swap(i,j) twice and insert round-trips restore the original."""
    _, order = graph_order
    rng = random.Random(seed)
    n = len(order)
    if n < 2:
        return
    i, j = rng.sample(range(n), 2)
    assert order.swap(i, j).swap(i, j) == order
    assert order.insert(i, j).insert(j, i) == order


# ----------------------------------------------------------------------
# Adversarial graph shapes: chain, star, clique, multi-component.
#
# The uniform random graphs above rarely produce the extreme shapes where
# prefix caching is most stressed (a chain shares almost everything, a
# star shares almost nothing, a clique maximizes predicate fan-in, and a
# disconnected graph exercises the cross-product segments).  These
# strategies pin those shapes down and re-assert the PR 2 parity
# guarantee — incremental costs bitwise equal to full plan_cost walks —
# plus validity of every intermediate order along a random move walk.
# ----------------------------------------------------------------------


def _build_graph(draw, n, edges):
    cardinalities = draw(
        st.lists(st.integers(2, 50_000), min_size=n, max_size=n)
    )
    relations = [Relation(f"R{i}", c) for i, c in enumerate(cardinalities)]
    predicates = []
    for a, b in sorted(edges):
        left_distinct = draw(st.integers(1, cardinalities[a]))
        right_distinct = draw(st.integers(1, cardinalities[b]))
        predicates.append(JoinPredicate(a, b, left_distinct, right_distinct))
    return JoinGraph(relations, predicates)


@st.composite
def chain_graphs(draw, min_relations=2, max_relations=9):
    n = draw(st.integers(min_relations, max_relations))
    return _build_graph(draw, n, [(i - 1, i) for i in range(1, n)])


@st.composite
def star_graphs(draw, min_relations=3, max_relations=9):
    n = draw(st.integers(min_relations, max_relations))
    return _build_graph(draw, n, [(0, i) for i in range(1, n)])


@st.composite
def clique_graphs(draw, min_relations=3, max_relations=6):
    n = draw(st.integers(min_relations, max_relations))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)]
    return _build_graph(draw, n, edges)


@st.composite
def multi_component_graphs(draw, min_components=2, max_components=3):
    """Disconnected graphs: 2-3 chain/star components of 1-4 relations."""
    n_components = draw(st.integers(min_components, max_components))
    edges: list[tuple[int, int]] = []
    offset = 0
    for _ in range(n_components):
        size = draw(st.integers(1, 4))
        star = draw(st.booleans())
        for i in range(1, size):
            anchor = offset if star else offset + i - 1
            edges.append((anchor, offset + i))
        offset += size
    return _build_graph(draw, offset, edges)


def adversarial_graphs():
    return st.one_of(
        chain_graphs(), star_graphs(), clique_graphs(),
        multi_component_graphs(),
    )


@given(
    adversarial_graphs(),
    st.integers(0, 2**16),
    st.sampled_from(["memory", "disk"]),
)
@settings(max_examples=80, deadline=None)
def test_adversarial_incremental_matches_full_walk(graph, seed, model_name):
    """Prefix-cached candidate costs are bitwise equal to full walks, and
    every intermediate order of a random move walk stays valid — on the
    shapes the uniform generator almost never produces."""
    from repro.core.moves import NoValidMove
    from repro.cost.incremental import IncrementalEvaluator

    model = MainMemoryCostModel() if model_name == "memory" else DiskCostModel()
    rng = random.Random(seed)
    current = random_valid_order(graph, rng)
    engine = IncrementalEvaluator(graph, model)
    cost, _ = engine.rebase(current.positions)
    assert cost == model.plan_cost(current, graph)
    move_set = MoveSet()
    for _ in range(6):
        try:
            move, neighbor = move_set.random_valid_move(current, graph, rng)
        except NoValidMove:
            break
        assert is_valid_order(neighbor, graph)
        candidate_cost, _ = engine.evaluate(
            neighbor.positions, None, move.first_changed
        )
        assert candidate_cost == model.plan_cost(neighbor, graph)
        engine.commit(neighbor.positions)
        current = neighbor


@given(adversarial_graphs(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_adversarial_bounded_walks_sound(graph, seed):
    """An aborted (bounded) evaluation means the true cost exceeds the
    bound; an unaborted one is bitwise equal to the full walk."""
    from repro.cost.incremental import IncrementalEvaluator

    model = MainMemoryCostModel()
    rng = random.Random(seed)
    anchor = random_valid_order(graph, rng)
    engine = IncrementalEvaluator(graph, model)
    anchor_cost, _ = engine.rebase(anchor.positions)
    candidate = random_valid_order(graph, rng)
    full = model.plan_cost(candidate, graph)
    bounded, _ = engine.evaluate(candidate.positions, anchor_cost)
    if bounded is None:
        assert full > anchor_cost
    else:
        assert bounded == full


@given(adversarial_graphs(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_adversarial_random_orders_valid(graph, seed):
    order = random_valid_order(graph, random.Random(seed))
    assert is_valid_order(order, graph)
    sizes = prefix_cardinalities(order, graph)
    assert len(sizes) == graph.n_relations
    assert all(size >= 1.0 for size in sizes)
