"""Differential oracle suite for the exact branch-and-bound.

The contract under test is unusually strong: :func:`exact_optimum` must
be **bitwise** equal to exhaustive enumeration — same float, not merely
close — for both cost models, on connected and disconnected graphs
alike.  Everything else in this file leans on that anchor: optimality
gaps are exactly ``>= 1.0``, a method handed the exact order scores a
gap of exactly ``1.0``, and gap reports are byte-identical across worker
counts.
"""

from __future__ import annotations

import json
import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.budget import Budget, BudgetExhausted, WallClockBudget
from repro.core.combinations import (
    IterativeImprovementStrategy,
    MethodParams,
    Strategy,
    compare_methods,
    make_strategy,
)
from repro.core.exact import (
    DEFAULT_MAX_EXACT,
    ExactStrategy,
    _branch_and_bound,
    _SearchStats,
    _seed_incumbent,
    build_gap_report,
    exact_optimum,
    gap_report_json,
    optimality_gap,
)
from repro.core.iterative import default_patience
from repro.core.optimizer import optimize
from repro.core.state import DeltaEvaluator, make_evaluator
from repro.cost.cardinality import (
    MAX_CARDINALITY,
    CostOverflowError,
    PrefixState,
    QueryContext,
    extend_state,
    start_state,
    step,
)
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.cost.methods import (
    MultiMethodCostModel,
    NestedLoopCostModel,
    SortMergeCostModel,
)
from repro.cost.static import StaticCostModel
from repro.obs import RecordingTracer
from repro.obs.profile import profile_events
from repro.plans.join_order import JoinOrder
from repro.plans.join_tree import build_join_tree
from repro.plans.validity import first_invalid_position, valid_orders
from repro.robustness import verify_plan
from repro.utils.rng import derive_rng
from repro.workloads import DEFAULT_SPEC, generate_query
from repro.workloads.benchmarks import benchmark_specs
from tests.faults import StallingClock
from tests.conftest import (
    chain_graph,
    cycle_graph,
    selected_graph,
    star_graph,
    two_component_graph,
)
from tests.test_property_invariants import graphs_with_orders

MODELS = [MainMemoryCostModel(), DiskCostModel()]
MODEL_IDS = ["memory", "disk"]
#: Every shipped model: the two the paper's methods search, and the
#: three §7 join methods, which price through ``join_cost`` itself.
ORACLE_MODELS = MODELS + [
    NestedLoopCostModel(),
    SortMergeCostModel(),
    MultiMethodCostModel(),
]
ORACLE_IDS = MODEL_IDS + ["nested-loop", "sort-merge", "multi-method"]


def brute_force_optimum(graph: JoinGraph, model) -> float:
    """The bitwise minimum plan cost over every valid order.

    Orders whose walk overflows (or produces a non-finite total) are
    excluded — exactly the orders ``plan_cost`` refuses to price.
    """
    best = None
    for order in valid_orders(graph):
        try:
            cost = model.plan_cost(order, graph)
        except (CostOverflowError, OverflowError):
            continue
        if not math.isfinite(cost):
            continue
        if best is None or cost < best:
            best = cost
    assert best is not None, "graph admits no finite-cost order"
    return best


def mixed_magnitude_graph(huge: bool) -> JoinGraph:
    """A 1e15-row relation among 1-row ones, with or without a 1e300-row
    one: the small floors fall below the rounding of the floor sum."""
    cards = [1e15, 1, 1, 1, 1]
    predicates = [
        JoinPredicate(0, 1, 1e6, 1),
        JoinPredicate(0, 2, 1e9, 1),
        JoinPredicate(2, 3, 1, 1),
        JoinPredicate(1, 4, 1, 1),
    ]
    if huge:
        cards.append(1e300)
        predicates += [JoinPredicate(3, 5, 1, 1e12), JoinPredicate(4, 5, 1, 1e200)]
    return JoinGraph(
        [Relation(f"R{i}", card) for i, card in enumerate(cards)], predicates
    )


def shape_graphs() -> list[tuple[str, JoinGraph]]:
    return [
        ("chain", chain_graph()),
        ("star", star_graph()),
        ("cycle", cycle_graph()),
        ("two-components", two_component_graph()),
        ("selected", selected_graph()),
        ("mixed-1e15", mixed_magnitude_graph(huge=False)),
        ("mixed-1e15-1e300", mixed_magnitude_graph(huge=True)),
    ]


def random_graphs(count: int = 8, max_joins: int = 7) -> list[JoinGraph]:
    graphs = []
    for seed in range(count):
        n_joins = 4 + seed % (max_joins - 3)
        graphs.append(generate_query(DEFAULT_SPEC, n_joins, seed).graph)
    return graphs


def all_connected_four_vertex_graphs() -> list[JoinGraph]:
    """Every connected labeled graph on four relations (38 of them)."""
    cards = [120, 30, 900, 45]
    distincts = [12.0, 5.0, 30.0, 9.0]
    possible_edges = list(combinations(range(4), 2))
    graphs = []
    for count in range(3, len(possible_edges) + 1):
        for edges in combinations(possible_edges, count):
            adjacency = {v: set() for v in range(4)}
            for a, b in edges:
                adjacency[a].add(b)
                adjacency[b].add(a)
            seen = {0}
            stack = [0]
            while stack:
                for neighbor in adjacency[stack.pop()]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            if len(seen) < 4:
                continue
            graphs.append(
                JoinGraph(
                    [Relation(f"R{i}", cards[i]) for i in range(4)],
                    [
                        JoinPredicate(a, b, distincts[a], distincts[b])
                        for a, b in edges
                    ],
                )
            )
    return graphs


# ----------------------------------------------------------------------
# The oracle: bitwise equality with exhaustive enumeration
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_bitwise_equal_to_enumeration_on_shapes(model):
    for name, graph in shape_graphs():
        result = exact_optimum(graph, model)
        oracle = brute_force_optimum(graph, model)
        assert result.cost == oracle, name
        assert result.proven
        # The reported cost is the true plan cost of the reported order,
        # to the bit.
        assert model.plan_cost(result.order, graph) == result.cost


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_bitwise_equal_to_enumeration_on_random_graphs(model):
    for graph in random_graphs():
        result = exact_optimum(graph, model)
        assert result.cost == brute_force_optimum(graph, model)
        assert first_invalid_position(result.order, graph) is None


@pytest.mark.parametrize("model", ORACLE_MODELS, ids=ORACLE_IDS)
def test_bitwise_equal_on_every_connected_four_vertex_graph(model):
    graphs = all_connected_four_vertex_graphs()
    assert len(graphs) == 38  # 38 connected labeled graphs on 4 vertices
    for graph in graphs:
        result = exact_optimum(graph, model)
        assert result.cost == brute_force_optimum(graph, model)


def test_refuses_a_model_that_overrides_plan_cost():
    """The search folds the propagating step; a model with its own
    ``plan_cost``, the static estimator included, is refused up front."""
    graph = generate_query(DEFAULT_SPEC, 5, 0).graph
    with pytest.raises(ValueError, match="overrides plan_cost"):
        exact_optimum(graph, StaticCostModel(MainMemoryCostModel()))


def test_disconnected_graphs_searched_natively():
    graph = two_component_graph()
    for model in MODELS:
        result = exact_optimum(graph, model)
        assert result.cost == brute_force_optimum(graph, model)
        assert result.proven
        assert first_invalid_position(result.order, graph) is None


def test_cross_product_free_on_connected_graphs():
    for graph in random_graphs(count=5):
        if not graph.is_connected:
            continue
        result = exact_optimum(graph, MainMemoryCostModel())
        nodes = build_join_tree(result.order, graph).nodes
        assert not any(node.is_cross_product for node in nodes)


def test_prefix_state_chain_matches_plan_cost_bitwise():
    """The search's step arithmetic *is* the estimator's, op for op."""
    for model in MODELS:
        for graph in random_graphs(count=5):
            context = QueryContext(graph, model)
            rng = derive_rng(17, "test", "prefix-chain", graph.n_relations)
            for _ in range(20):
                from repro.plans.validity import random_valid_order

                order = random_valid_order(graph, rng)
                state = start_state(context, order[0])
                for vertex in order.positions[1:]:
                    state = extend_state(context, state, vertex)
                assert state.cost == model.plan_cost(order, graph)


def test_single_relation_and_max_relations_guard():
    graph = JoinGraph([Relation("R0", 100)], [])
    result = exact_optimum(graph, MainMemoryCostModel())
    assert result.cost == 0.0
    assert result.proven
    big = generate_query(DEFAULT_SPEC, 20, 0).graph
    with pytest.raises(ValueError, match="max_relations"):
        exact_optimum(big, MainMemoryCostModel())


# ----------------------------------------------------------------------
# The remainder floor: what its pruning assumes, and where its rounding
# margin has to hold
# ----------------------------------------------------------------------


@given(graphs_with_orders(), st.sampled_from(ORACLE_MODELS))
@settings(max_examples=60, deadline=None)
def test_every_join_the_step_prices_is_at_least_its_floor(graph_order, model):
    """Each unplaced relation joins once, as an inner, against an outer
    and a result of at least one tuple; the step prices that join at no
    less than ``join_cost(1, inner, 1)``, in floats."""
    graph, order = graph_order
    context = QueryContext(graph, model)
    state = start_state(context, order[0])
    for inner in order.positions[1:]:
        floor = model.join_cost(1.0, graph.cardinality(inner), 1.0)
        # The join alone: the same step from a zero running cost.
        alone = PrefixState(
            state.mask, state.size, 0.0,
            state.caps.copy(), state.unplaced.copy(),
        )
        step(context, alone, inner)
        assert alone.cost >= floor >= 0.0
        step(context, state, inner)


@given(
    st.sampled_from(ORACLE_MODELS),
    st.floats(1.0, MAX_CARDINALITY),
    st.floats(1.0, 1e300),
    st.floats(1.0, MAX_CARDINALITY),
)
@settings(max_examples=200, deadline=None)
def test_join_cost_is_at_least_its_floor(model, outer, inner, result):
    """The same lemma over every outer and result size the clamp allows."""
    floor = model.join_cost(1.0, inner, 1.0)
    assert model.join_cost(outer, inner, result) >= floor >= 0.0


def test_the_margin_keeps_an_optimum_one_ulp_below_a_tie():
    """Orders (1 0 3 2) and (1 0 2 3) cost the same in real arithmetic,
    but their float sums are 27.299999999999997 and 27.3.  Pruning on
    ``g + h`` above the incumbent with no margin loses the cheaper one;
    past the rounding margin the search keeps it."""
    graph = JoinGraph(
        [Relation(f"R{i}", card) for i, card in enumerate([1, 10, 7, 1])],
        [JoinPredicate(0, 1, 1, 10), JoinPredicate(0, 3, 1, 1),
         JoinPredicate(1, 2, 10, 7)],
    )
    model = MainMemoryCostModel()
    assert model.plan_cost(JoinOrder([1, 0, 2, 3]), graph) == 27.3
    result = exact_optimum(graph, model)
    assert result.cost == brute_force_optimum(graph, model) == 27.299999999999997
    assert result.order.positions == (1, 0, 3, 2)


def test_an_overflowing_floor_sum_prunes_nothing_and_stays_exact():
    """Two relations near the float ceiling: each floor is finite, their
    sum is not, so the search runs on the running cost alone.  Two of
    the four orders price finitely: each starts from one of the two
    (clamped to MAX_CARDINALITY) and cuts it to one tuple before the
    other, and the cheaper starts from the larger."""
    graph = JoinGraph(
        [Relation("A", 1.4e308), Relation("B", 1e307), Relation("C", 1)],
        [JoinPredicate(0, 2, 1e150, 1), JoinPredicate(2, 1, 1, 1e307)],
    )
    model = MainMemoryCostModel()
    floors = [model.join_cost(1.0, graph.cardinality(v), 1.0) for v in range(3)]
    assert all(math.isfinite(floor) for floor in floors)
    assert not math.isfinite(sum(floors))
    result = exact_optimum(graph, model)
    assert result.order.positions == (0, 2, 1)
    assert result.cost == brute_force_optimum(graph, model)


#: Generated 12-relation queries, (spec, seed, model), whose proof fits
#: ``optimize``'s default budget of 9 N^2 only with the floor pruning:
#: on the running cost alone the search spends the whole budget and
#: returns its seed's plan.
BUDGET_BOUND_PROOFS = [
    (1, 5, "memory"), (1, 5, "disk"), (7, 1, "disk"), (7, 2, "disk"),
    (7, 3, "memory"), (7, 3, "disk"), (8, 5, "disk"),
]


@pytest.mark.parametrize(
    "spec, seed, model_name",
    BUDGET_BOUND_PROOFS,
    ids=[f"{spec}-{seed}-{model}" for spec, seed, model in BUDGET_BOUND_PROOFS],
)
def test_the_default_budget_proves_twelve_relations(spec, seed, model_name):
    model = dict(zip(MODEL_IDS, MODELS))[model_name]
    graph = generate_query(benchmark_specs()[spec], 11, seed).graph
    result = optimize(graph, method="EXACT", model=model)
    assert result.cost == exact_optimum(graph, model).cost


# ----------------------------------------------------------------------
# Budget semantics
# ----------------------------------------------------------------------


def test_budget_exhaustion_raises_by_default():
    graph = generate_query(DEFAULT_SPEC, 9, 2).graph
    with pytest.raises(BudgetExhausted):
        exact_optimum(graph, MainMemoryCostModel(), budget=Budget(limit=60.0))


def test_budget_exhaustion_partial_returns_incumbent():
    graph = generate_query(DEFAULT_SPEC, 9, 2).graph
    result = exact_optimum(
        graph,
        MainMemoryCostModel(),
        budget=Budget(limit=60.0),
        allow_partial=True,
    )
    assert not result.proven
    assert first_invalid_position(result.order, graph) is None
    assert result.cost == MainMemoryCostModel().plan_cost(result.order, graph)
    # Deterministic: same starvation, same answer.
    again = exact_optimum(
        graph,
        MainMemoryCostModel(),
        budget=Budget(limit=60.0),
        allow_partial=True,
    )
    assert again.order == result.order and again.cost == result.cost


def test_budget_too_small_even_for_partial():
    graph = generate_query(DEFAULT_SPEC, 9, 2).graph
    with pytest.raises(BudgetExhausted):
        exact_optimum(
            graph,
            MainMemoryCostModel(),
            budget=Budget(limit=2.0),
            allow_partial=True,
        )


def test_a_cut_search_answers_with_its_own_incumbent():
    """Cut short after its last incumbent update, the search answers
    with that order (here the optimum), not the seed's 133,780.88."""
    graph = generate_query(DEFAULT_SPEC, 9, 0).graph
    result = exact_optimum(
        graph,
        MainMemoryCostModel(),
        budget=Budget(limit=2054.0),
        allow_partial=True,
    )
    assert not result.proven
    assert result.cost == PINNED_SEARCHES[(9, 0, "memory")][-1]


def test_exact_cut_short_through_optimize_keeps_the_search_incumbent():
    result = optimize(
        generate_query(DEFAULT_SPEC, 9, 0),
        method="EXACT",
        budget=Budget(limit=3300.0),
    )
    assert result.cost == PINNED_SEARCHES[(9, 0, "memory")][-1]
    assert result.trajectory[-1][1] == result.cost


# ----------------------------------------------------------------------
# Observability: counters exist, tracing perturbs nothing
# ----------------------------------------------------------------------


def test_traced_run_identical_to_untraced():
    graph = generate_query(DEFAULT_SPEC, 8, 4).graph
    plain = exact_optimum(graph, MainMemoryCostModel())
    tracer = RecordingTracer()
    traced = exact_optimum(graph, MainMemoryCostModel(), trace=tracer)
    assert traced.order == plain.order
    assert traced.cost == plain.cost
    assert traced.nodes_expanded == plain.nodes_expanded
    assert traced.nodes_pruned_bound == plain.nodes_pruned_bound
    assert traced.nodes_pruned_dominated == plain.nodes_pruned_dominated
    snapshot = tracer.metrics.snapshot()
    counters = snapshot["counters"]
    assert counters["exact_nodes_expanded"] == float(plain.nodes_expanded)
    assert counters["exact_nodes_pruned_bound"] == float(
        plain.nodes_pruned_bound
    )
    assert counters["exact_nodes_pruned_dominated"] == float(
        plain.nodes_pruned_dominated
    )
    assert "exact_incumbent_updates" in counters
    phases = [
        event.data.get("phase")
        for event in tracer.events
        if event.kind in ("phase_start", "phase_end")
    ]
    assert "exact_bnb" in phases


def test_a_traced_exact_run_stamps_its_phases_on_the_run_clock():
    """The seed and the search charge the run's own budget, and each
    improvement is one ``best`` event."""
    tracer = RecordingTracer()
    result = optimize(
        generate_query(DEFAULT_SPEC, 8, 5), method="EXACT", trace=tracer
    )
    exact = profile_events(tracer.events).root.children["EXACT"]
    assert exact.children["exact_seed"].total_units() > 0.0
    assert exact.children["exact_bnb"].total_units() > 0.0
    bests = [event.data["cost"] for event in tracer.events
             if event.kind == "best"]
    assert len(bests) == len(result.trajectory) == 5
    assert bests == sorted(set(bests), reverse=True)
    assert bests[-1] == result.cost


# ----------------------------------------------------------------------
# Seeding: the heuristic starts run only where the budget may cut the
# search off
# ----------------------------------------------------------------------


def _seed_evaluations(graph: JoinGraph, **kwargs) -> float:
    """Plans the seed priced: the B&B records orders, it prices none."""
    tracer = RecordingTracer()
    exact_optimum(graph, MainMemoryCostModel(), trace=tracer, **kwargs)
    return tracer.metrics.snapshot()["counters"].get("evaluations", 0.0)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_bitwise_equal_to_enumeration_where_the_seed_flips(model):
    """Two to five relations, every spec: proven and bitwise minimal."""
    for spec in benchmark_specs().values():
        for n_joins in range(1, 5):
            for seed in range(3):
                graph = generate_query(spec, n_joins, seed).graph
                result = exact_optimum(graph, model)
                assert result.proven
                assert result.cost == brute_force_optimum(graph, model), (
                    spec.name, n_joins, seed,
                )


def _optimize_seed_evaluations(graph: JoinGraph, **kwargs) -> float:
    """Plans EXACT's seed priced through ``optimize``."""
    tracer = RecordingTracer()
    optimize(graph, method="EXACT", trace=tracer, **kwargs)
    return tracer.metrics.snapshot()["counters"]["evaluations"]


def _seeding_budget() -> WallClockBudget:
    """A budget that never runs out, yet never promises the search fits."""
    return WallClockBudget(1.0, clock=StallingClock())


@pytest.mark.parametrize("n_joins", [4, 7, 11])
def test_seed_is_the_greedy_order_alone_under_an_unlimited_budget(n_joins):
    graph = generate_query(DEFAULT_SPEC, n_joins, 7).graph
    assert graph.is_connected
    assert _seed_evaluations(graph) == 1.0


def test_seed_flips_between_six_and_seven_relations_at_the_default_budget():
    """After the greedy order, a 6-relation search's worst case of 1,950
    extensions fits the 6,745 units left; a 7-relation one's 13,692 does
    not fit 9,714."""
    six = generate_query(DEFAULT_SPEC, 5, 7).graph
    assert six.n_relations == 6 and six.is_connected
    assert _optimize_seed_evaluations(six) == 1.0
    seven = generate_query(DEFAULT_SPEC, 6, 7).graph
    assert seven.n_relations == 7 and seven.is_connected
    # Greedy, seven KBZ and seven augmentation orders, then a polish that
    # stops only after default_patience(7) failed moves in a row.
    assert _optimize_seed_evaluations(seven) >= (
        1 + 2 * 7 + default_patience(7)
    )


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_bitwise_equal_to_enumeration_where_the_default_budget_flips(model):
    """Six and seven relations through ``optimize``, every spec."""
    for spec in benchmark_specs().values():
        for n_joins in (5, 6):
            graph = generate_query(spec, n_joins, 0).graph
            result = optimize(graph, method="EXACT", model=model)
            assert result.cost == brute_force_optimum(graph, model), (
                spec.name, n_joins,
            )


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_the_incumbent_changes_no_expansion(model):
    """The search expands the same nodes from the greedy order as from
    the full seed's better incumbent.

    Nodes pop in ``g + h`` order with ``h`` never above the remainder, so
    every prefix of the optimal order pops before any prefix whose
    ``g + h`` passes the optimum; a better start only discards at
    generation the children the search would discard at pop (up to the
    rounding of ``h``; see ``docs/exact.md``).  Which of several tied
    minima is reported may differ (bitwise ties are common under the
    disk model, and clamped sizes make them under either model).
    """
    improved = 0
    for spec in benchmark_specs().values():
        for n_joins in range(3, 8):
            for seed in range(2):
                graph = generate_query(spec, n_joins, seed).graph
                runs = []
                for budget in (Budget.unlimited(), _seeding_budget()):
                    evaluator = DeltaEvaluator(graph, model, budget)
                    _seed_incumbent(evaluator, 0)
                    incumbent = evaluator.best.cost
                    stats = _SearchStats()
                    _branch_and_bound(evaluator, stats)
                    best = evaluator.best
                    runs.append((best.cost, stats.nodes_expanded,
                                 best.order.positions, incumbent))
                greedy, seeded = runs
                key = (spec.name, n_joins, seed)
                assert seeded[:2] == greedy[:2], key
                for order in (greedy[2], seeded[2]):
                    tied = model.plan_cost(JoinOrder(order), graph)
                    assert tied == greedy[0], key
                improved += seeded[3] < greedy[3]
    assert improved > 0  # the full seed did start from better incumbents


#: ``exact_optimum`` on DEFAULT_SPEC queries under an unlimited budget:
#: nodes expanded, pruned on the bound (the running cost or the
#: remainder floor), pruned as dominated, cost evaluations, order and
#: cost.  Any change to a pruning decision moves one of them.
PINNED_SEARCHES = {
    (9, 0, "memory"): (
        1135, 1050, 1238, 3424,
        (2, 7, 0, 4, 1, 5, 9, 3, 6, 8), 130827.36475423852,
    ),
    (9, 0, "disk"): (
        1107, 975, 1242, 3325,
        (2, 7, 0, 4, 1, 5, 9, 3, 6, 8), 6040.531087444876,
    ),
    (10, 1, "memory"): (
        1258, 34, 3209, 4501,
        (1, 2, 4, 5, 0, 10, 3, 7, 9, 8, 6), 250970219851.89877,
    ),
    (10, 1, "disk"): (
        1216, 32, 3099, 4347,
        (1, 2, 4, 5, 0, 10, 3, 7, 9, 8, 6), 12115024221.487907,
    ),
    (11, 2, "memory"): (
        875, 55, 1864, 2794,
        (2, 10, 1, 3, 4, 6, 9, 5, 0, 7, 11, 8), 2161544363.2244368,
    ),
    (11, 2, "disk"): (
        847, 52, 1846, 2745,
        (2, 10, 1, 3, 4, 6, 9, 7, 5, 0, 11, 8), 103524841.22540711,
    ),
}


@pytest.mark.parametrize(
    "n_joins, seed, model_name",
    sorted(PINNED_SEARCHES),
    ids=[f"{n}-{s}-{m}" for n, s, m in sorted(PINNED_SEARCHES)],
)
def test_search_decisions_are_pinned(n_joins, seed, model_name):
    model = dict(zip(MODEL_IDS, MODELS))[model_name]
    graph = generate_query(DEFAULT_SPEC, n_joins, seed).graph
    result = exact_optimum(graph, model)
    assert (
        result.nodes_expanded,
        result.nodes_pruned_bound,
        result.nodes_pruned_dominated,
        result.n_cost_evaluations,
        result.order.positions,
        result.cost,
    ) == PINNED_SEARCHES[(n_joins, seed, model_name)]


def test_seed_runs_when_the_budget_cannot_cover_the_search():
    """Greedy (3 units) plus the search's 60 extensions exceed 50."""
    four = generate_query(DEFAULT_SPEC, 3, 7).graph
    evaluations = _seed_evaluations(
        four, budget=Budget(limit=50.0), allow_partial=True
    )
    assert evaluations > 1.0


def test_disk_ties_resolve_to_a_tied_minimum():
    """The disk join cost is symmetric in its first two operands.

    Swapping the first two relations can then give a bitwise-equal plan
    cost, and which of the tied orders the search reports depends on
    the incumbent it started from.  The contract is the cost, and an
    order among the minima -- not a particular one of them.
    """
    model = DiskCostModel()
    tied = 0
    for spec in benchmark_specs().values():
        for n_joins in (2, 3):
            for seed in range(5):
                graph = generate_query(spec, n_joins, seed).graph
                costs = {}
                for order in valid_orders(graph):
                    try:
                        costs[order.positions] = model.plan_cost(order, graph)
                    except (CostOverflowError, OverflowError):
                        continue
                best = brute_force_optimum(graph, model)
                minima = {order for order, cost in costs.items() if cost == best}
                tied += len(minima) > 1
                result = exact_optimum(graph, model)
                assert result.cost == best
                assert result.order.positions in minima
    assert tied > 0  # the sample holds bitwise ties


# ----------------------------------------------------------------------
# The EXACT method behind optimize()/compare_methods()
# ----------------------------------------------------------------------


def test_exact_strategy_through_optimize():
    query = generate_query(DEFAULT_SPEC, 10, 3)
    result = optimize(query, method="EXACT", model=MainMemoryCostModel())
    reference = exact_optimum(query.graph, MainMemoryCostModel())
    assert result.cost == reference.cost
    assert result.order == reference.order


def test_exact_strategy_under_a_wall_clock_that_never_advances():
    query = generate_query(DEFAULT_SPEC, 9, 3)
    result = optimize(query, method="EXACT", budget=_seeding_budget())
    reference = exact_optimum(query.graph, MainMemoryCostModel())
    assert result.order == reference.order
    assert result.cost == reference.cost


def test_exact_strategy_answers_when_the_deadline_passes_mid_search():
    """The search is cut, and the seed's incumbent is still recorded."""
    query = generate_query(DEFAULT_SPEC, 9, 3)
    # Each charge reads the clock once: the seed about 150 times, the
    # search some 1,350 more, so the stall at call 400 cuts the search.
    clock = StallingClock(jumps={400: 100.0})
    tracer = RecordingTracer()
    result = optimize(
        query,
        method="EXACT",
        budget=WallClockBudget(2.0, clock=clock),
        trace=tracer,
    )
    model = MainMemoryCostModel()
    assert verify_plan(result.order, result.cost, query.graph, model).ok
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["evaluations"] > 1.0  # the full seed ran
    full = exact_optimum(query.graph, model)
    assert counters["exact_nodes_expanded"] < full.nodes_expanded


def test_exact_returns_the_one_plan_a_budget_pays_for():
    """Eight units price the greedy order of eight joins, and no more."""
    result = optimize(
        generate_query(DEFAULT_SPEC, 8, 0),
        method="EXACT",
        budget=Budget(limit=8.0),
    )
    assert result.cost == 2208340.9485102673
    assert (result.units_spent, result.n_evaluations) == (8.0, 1)


def test_exact_through_optimize_compiles_the_query_twice(monkeypatch):
    """Once for the evaluator the seed and the search share, once for
    the verify gate."""
    compiles = []
    init = QueryContext.__init__

    def counting(self, *args, **kwargs):
        compiles.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QueryContext, "__init__", counting)
    optimize(generate_query(DEFAULT_SPEC, 8, 5), method="EXACT")
    assert len(compiles) == 2


def test_exact_strategy_registered():
    strategy = make_strategy("EXACT")
    assert isinstance(strategy, ExactStrategy)


def test_exact_in_compare_methods():
    query = generate_query(DEFAULT_SPEC, 8, 6)
    results = compare_methods(
        query, methods=("II", "EXACT"), model=MainMemoryCostModel()
    )
    reference = exact_optimum(query.graph, MainMemoryCostModel())
    assert results["EXACT"].cost == reference.cost
    assert results["II"].cost >= results["EXACT"].cost


def test_exact_strategy_runs_ii_above_the_frontier():
    """Above DEFAULT_MAX_EXACT relations EXACT is II, draw for draw."""
    graph = generate_query(DEFAULT_SPEC, DEFAULT_MAX_EXACT + 5, 1).graph
    model = MainMemoryCostModel()
    runs = []
    for strategy in (ExactStrategy(), IterativeImprovementStrategy()):
        evaluator = make_evaluator(
            graph, model, Budget.for_query(graph.n_joins, 1.0)
        )
        strategy.run(evaluator, random.Random(3), MethodParams())
        runs.append(evaluator)
    exact, ii = runs
    assert exact.best == ii.best
    assert exact.trajectory == ii.trajectory
    assert exact.n_evaluations == ii.n_evaluations
    assert exact.budget.spent == ii.budget.spent
    assert first_invalid_position(exact.best.order, graph) is None


# ----------------------------------------------------------------------
# Optimality gaps
# ----------------------------------------------------------------------


def test_gap_at_least_one_for_every_method_on_every_graph():
    """cost >= exact bitwise, and IEEE division preserves it exactly."""
    methods = ("II", "SA", "IAI", "AGI")
    for seed in range(6):
        query = generate_query(DEFAULT_SPEC, 5 + seed % 3, seed)
        for model in MODELS:
            exact = exact_optimum(query.graph, model)
            results = compare_methods(
                query, methods=methods, model=model, seed=seed
            )
            for method, result in results.items():
                gap = optimality_gap(result.cost, exact.cost)
                assert gap >= 1.0, (method, seed)


class _InjectedStart(Strategy):
    """A degenerate method that just prices one fixed order."""

    name = "INJECTED"
    description = "evaluates a single injected order"

    def __init__(self, order: JoinOrder) -> None:
        self._order = order

    def run(self, evaluator, rng, params) -> None:
        evaluator.evaluate(self._order)


def test_gap_exactly_one_when_given_the_exact_order():
    for seed in (0, 3, 5):
        query = generate_query(DEFAULT_SPEC, 7, seed)
        exact = exact_optimum(query.graph, MainMemoryCostModel())
        result = optimize(
            query,
            method=_InjectedStart(exact.order),
            model=MainMemoryCostModel(),
        )
        assert result.cost == exact.cost
        assert optimality_gap(result.cost, exact.cost) == 1.0


def test_gap_report_byte_identical_across_workers():
    query = generate_query(DEFAULT_SPEC, 8, 9)
    model = MainMemoryCostModel()
    exact = exact_optimum(query.graph, model)
    serial = compare_methods(query, methods=("II", "IAI", "AGI"), model=model)
    fanned = compare_methods(
        query, methods=("II", "IAI", "AGI"), model=model, workers=3
    )
    report_serial = gap_report_json(build_gap_report(query, model, serial, exact))
    report_fanned = gap_report_json(build_gap_report(query, model, fanned, exact))
    assert report_serial == report_fanned
    assert report_serial.endswith("\n")
    # Stable across repeated rendering too (canonical bytes).
    assert report_serial == gap_report_json(
        build_gap_report(query, model, serial, exact)
    )


def test_gap_report_rows_ranked_and_anchored():
    query = generate_query(DEFAULT_SPEC, 7, 2)
    model = MainMemoryCostModel()
    exact = exact_optimum(query.graph, model)
    results = compare_methods(query, methods=("II", "IAI"), model=model)
    report = build_gap_report(query, model, results, exact)
    assert report.proven
    assert report.exact_cost == exact.cost
    costs = [row.cost for row in report.rows]
    assert costs == sorted(costs)
    for row in report.rows:
        assert row.gap == optimality_gap(row.cost, exact.cost)
        assert row.gap >= 1.0
    # Without an exact result the cheapest row, ties by method, anchors.
    best_found = build_gap_report(query, model, results)
    anchor = best_found.rows[0]
    assert (best_found.proven, best_found.mode) == (False, "best-found")
    assert best_found.exact_cost == anchor.cost
    assert best_found.exact_order == results[anchor.method].order.positions
    assert anchor.gap == 1.0
    assert all(row.gap >= 1.0 for row in best_found.rows)


SEARCH_COUNTERS = {
    "nodes_expanded",
    "nodes_pruned_bound",
    "nodes_pruned_dominated",
    "incumbent_updates",
}


def test_gap_report_json_carries_search_counters_only_after_a_search():
    query = generate_query(DEFAULT_SPEC, 7, 2)
    model = MainMemoryCostModel()
    exact = exact_optimum(query.graph, model)
    results = compare_methods(query, methods=("II", "IAI"), model=model)
    proven = json.loads(
        gap_report_json(build_gap_report(query, model, results, exact))
    )["exact"]
    assert proven["mode"] == "branch-and-bound"
    assert SEARCH_COUNTERS <= set(proven)
    assert proven["nodes_expanded"] == exact.nodes_expanded > 0
    best_found = json.loads(
        gap_report_json(build_gap_report(query, model, results))
    )["exact"]
    assert best_found == {
        "cost": best_found["cost"],
        "order": best_found["order"],
        "proven": False,
        "mode": "best-found",
    }


def test_optimality_gap_edge_cases():
    assert optimality_gap(0.0, 0.0) == 1.0
    assert optimality_gap(5.0, 0.0) == math.inf
    assert optimality_gap(7.5, 7.5) == 1.0


# ----------------------------------------------------------------------
# Above the frontier
# ----------------------------------------------------------------------


def test_exact_above_the_frontier_runs_ii_to_a_wall_clock_deadline():
    """EXACT's II restarts until the deadline instead of stopping after
    one descent."""
    tracer = RecordingTracer()
    optimize(
        generate_query(DEFAULT_SPEC, 20, 1),
        method="EXACT",
        budget=WallClockBudget(2.0, clock=StallingClock(tick=1e-4)),
        trace=tracer,
    )
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["evaluations"] > 1000
