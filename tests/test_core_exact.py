"""Differential oracle suite for the exact branch-and-bound.

The contract under test is unusually strong: :func:`exact_optimum` must
be **bitwise** equal to exhaustive enumeration — same float, not merely
close — for both cost models, on connected and disconnected graphs
alike.  Everything else in this file leans on that anchor: optimality
gaps are exactly ``>= 1.0``, a method handed the exact order scores a
gap of exactly ``1.0``, DP's propagating recost is a true upper bound,
and gap reports are byte-identical across worker counts.
"""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.budget import Budget, BudgetExhausted, WallClockBudget
from repro.core.combinations import (
    Strategy,
    compare_methods,
    make_strategy,
)
from repro.core.dynamic_programming import dp_optimal_order
from repro.core.exact import (
    DEFAULT_MAX_EXACT,
    ExactStrategy,
    _branch_and_bound,
    _engine_for,
    _SearchStats,
    _seed_incumbent,
    build_gap_report,
    exact_feasible,
    exact_optimum,
    gap_report_json,
    hybrid_optimum,
    optimality_gap,
)
from repro.core.iterative import default_patience
from repro.core.optimizer import optimize
from repro.cost.cardinality import CostOverflowError, walk_plan
from repro.cost.disk import DiskCostModel
from repro.cost.incremental import (
    QueryContext,
    extend_state,
    start_state,
)
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.obs import NULL_TRACER, RecordingTracer
from repro.plans.join_order import JoinOrder
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

MODELS = [MainMemoryCostModel(), DiskCostModel()]
MODEL_IDS = ["memory", "disk"]


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


def shape_graphs() -> list[tuple[str, JoinGraph]]:
    return [
        ("chain", chain_graph()),
        ("star", star_graph()),
        ("cycle", cycle_graph()),
        ("two-components", two_component_graph()),
        ("selected", selected_graph()),
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


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_bitwise_equal_to_enumeration_on_shapes(model):
    for name, graph in shape_graphs():
        result = exact_optimum(graph, model)
        oracle = brute_force_optimum(graph, model)
        assert result.cost == oracle, name
        assert result.proven
        # The reported cost is the true plan cost of the reported order,
        # to the bit.
        assert model.plan_cost(result.order, graph) == result.cost


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_bitwise_equal_to_enumeration_on_random_graphs(model):
    for graph in random_graphs():
        result = exact_optimum(graph, model)
        assert result.cost == brute_force_optimum(graph, model)
        assert first_invalid_position(result.order, graph) is None


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_bitwise_equal_on_every_connected_four_vertex_graph(model):
    graphs = all_connected_four_vertex_graphs()
    assert len(graphs) == 38  # 38 connected labeled graphs on 4 vertices
    for graph in graphs:
        result = exact_optimum(graph, model)
        assert result.cost == brute_force_optimum(graph, model)


def test_bitwise_equal_under_static_model():
    static = StaticCostModel(MainMemoryCostModel())
    for name, graph in shape_graphs():
        result = exact_optimum(graph, static)
        assert result.cost == brute_force_optimum(graph, static), name
    for graph in random_graphs(count=5):
        result = exact_optimum(graph, static)
        assert result.cost == brute_force_optimum(graph, static)


def test_matches_dp_under_static_model():
    """B&B under the static engine never exceeds DP, and agrees closely.

    DP relies on the Bellman principle, which holds mathematically but
    not bitwise under float arithmetic (static sizes are path-dependent
    floats), so the contract is `<=` plus closeness, not equality.
    """
    static = StaticCostModel(MainMemoryCostModel())
    for graph in random_graphs(count=6):
        if not graph.is_connected:
            continue
        bnb = exact_optimum(graph, static)
        dp = dp_optimal_order(graph, static)
        assert bnb.cost <= dp.cost
        assert bnb.cost == pytest.approx(dp.cost, rel=1e-9)


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
        steps = walk_plan(result.order, graph)
        assert not any(step.is_cross_product for step in steps)


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
    assert not exact_feasible(big)
    assert exact_feasible(big, max_relations=big.n_relations)


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


# ----------------------------------------------------------------------
# Seeding: the heuristic starts run only where the budget may cut the
# search off
# ----------------------------------------------------------------------


def _seed_evaluations(graph: JoinGraph, **kwargs) -> float:
    """Plans the seed priced: the B&B never goes through the evaluator."""
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
    """Plans EXACT's seed priced through ``optimize``.

    ``optimize`` prices the answer once more, through its own evaluator.
    """
    tracer = RecordingTracer()
    optimize(graph, method="EXACT", trace=tracer, **kwargs)
    return tracer.metrics.snapshot()["counters"]["evaluations"] - 1.0


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
    extensions fits the 6,740 units left; a 7-relation one's 13,692 does
    not fit 9,708."""
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
    every prefix of the optimal order pops before any prefix whose ``g``
    reaches the optimum; a better start only discards at generation the
    children the search would discard at pop.  Which of several tied
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
                    incumbent, _ = _seed_incumbent(
                        graph, model, budget, 0, NULL_TRACER
                    )
                    stats = _SearchStats()
                    order, cost = _branch_and_bound(
                        graph,
                        model,
                        _engine_for(graph, model),
                        Budget.unlimited(),
                        incumbent,
                        NULL_TRACER,
                        stats,
                    )
                    runs.append((cost, stats.nodes_expanded, order,
                                 incumbent.cost))
                greedy, seeded = runs
                key = (spec.name, n_joins, seed)
                assert seeded[:2] == greedy[:2], key
                for order in (greedy[2], seeded[2]):
                    tied = model.plan_cost(JoinOrder(order), graph)
                    assert tied == greedy[0], key
                improved += seeded[3] < greedy[3]
    assert improved > 0  # the full seed did start from better incumbents


#: ``exact_optimum`` on DEFAULT_SPEC queries under an unlimited budget:
#: nodes expanded, pruned on the bound, pruned as dominated, cost
#: evaluations, order and cost.  Any change to a pruning decision moves
#: one of them.
PINNED_SEARCHES = {
    (9, 0, "memory"): (
        1136, 1049, 1241, 3427,
        (2, 7, 0, 4, 1, 5, 9, 3, 6, 8), 130827.36475423852,
    ),
    (9, 0, "disk"): (
        1107, 974, 1243, 3325,
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
    assert counters["evaluations"] - 1.0 > 1.0  # the full seed ran
    full = exact_optimum(query.graph, model)
    assert counters["exact_nodes_expanded"] < full.nodes_expanded


def test_exact_strategy_registered():
    strategy = make_strategy("EXACT")
    assert isinstance(strategy, ExactStrategy)
    assert not strategy.stochastic


def test_exact_in_compare_methods():
    query = generate_query(DEFAULT_SPEC, 8, 6)
    results = compare_methods(
        query, methods=("II", "EXACT"), model=MainMemoryCostModel()
    )
    reference = exact_optimum(query.graph, MainMemoryCostModel())
    assert results["EXACT"].cost == reference.cost
    assert results["II"].cost >= results["EXACT"].cost


def test_exact_strategy_degrades_to_hybrid_at_large_n():
    query = generate_query(DEFAULT_SPEC, DEFAULT_MAX_EXACT + 5, 1)
    result = optimize(query, method="EXACT", model=MainMemoryCostModel())
    assert first_invalid_position(result.order, query.graph) is None
    assert math.isfinite(result.cost)


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
    stochastic = False

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


def test_optimality_gap_edge_cases():
    assert optimality_gap(0.0, 0.0) == 1.0
    assert optimality_gap(5.0, 0.0) == math.inf
    assert optimality_gap(7.5, 7.5) == 1.0


# ----------------------------------------------------------------------
# DP is a bound, not the answer
# ----------------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_dp_recost_upper_bounds_exact_propagating_optimum(model):
    """DP's propagating recost can never beat the propagating optimum.

    ``recost`` is the true cost of one particular valid order, and the
    exact optimum is the bitwise minimum over all of them — so the
    inequality is exact, no tolerance.
    """
    for graph in random_graphs(count=6):
        if not graph.is_connected:
            continue
        dp = dp_optimal_order(graph, model)
        exact = exact_optimum(graph, model)
        assert dp.recost >= exact.cost


# ----------------------------------------------------------------------
# Hybrid mode
# ----------------------------------------------------------------------


def test_hybrid_below_frontier_is_exact():
    graph = generate_query(DEFAULT_SPEC, 7, 1).graph
    hybrid = hybrid_optimum(graph, MainMemoryCostModel())
    exact = exact_optimum(graph, MainMemoryCostModel())
    assert hybrid.cost == exact.cost
    assert hybrid.mode == "branch-and-bound"


def test_hybrid_large_n_valid_and_deterministic():
    graph = generate_query(DEFAULT_SPEC, 23, 5).graph
    first = hybrid_optimum(graph, MainMemoryCostModel(), max_exact=8)
    second = hybrid_optimum(graph, MainMemoryCostModel(), max_exact=8)
    assert first.order == second.order
    assert first.cost == second.cost
    assert not first.proven
    assert first.mode == "hybrid"
    assert first_invalid_position(first.order, graph) is None
    assert first.cost == MainMemoryCostModel().plan_cost(first.order, graph)


def _hybrid_disconnected_graph() -> JoinGraph:
    pieces = [generate_query(DEFAULT_SPEC, 10, s).graph for s in (0, 1)]
    relations = []
    predicates = []
    offset = 0
    for piece in pieces:
        relations.extend(
            Relation(f"C{offset + i}", int(piece.cardinality(i)))
            for i in range(piece.n_relations)
        )
        for predicate in piece.predicates:
            predicates.append(
                JoinPredicate(
                    predicate.left + offset,
                    predicate.right + offset,
                    predicate.left_distinct,
                    predicate.right_distinct,
                )
            )
        offset += piece.n_relations
    return JoinGraph(relations, predicates)


def test_hybrid_disconnected_large_graph():
    graph = _hybrid_disconnected_graph()
    assert not graph.is_connected
    result = hybrid_optimum(graph, MainMemoryCostModel(), max_exact=8)
    assert first_invalid_position(result.order, graph) is None
    assert not result.proven
    assert result.cost == MainMemoryCostModel().plan_cost(result.order, graph)


def test_hybrid_disconnected_result_is_pinned():
    """Hybrid's disconnected answer and effort, pinned: the shared
    cross-product path must not move them."""
    result = hybrid_optimum(
        _hybrid_disconnected_graph(), MainMemoryCostModel(), max_exact=8
    )
    assert result.order.positions == (
        1, 0, 5, 2, 7, 4, 3, 8, 6, 9, 10,
        12, 13, 15, 16, 11, 21, 14, 18, 20, 19, 17,
    )
    assert result.cost == 5716913046567309.0
    assert result.units_spent == 29767.5
    assert (
        result.nodes_expanded, result.nodes_pruned_bound,
        result.nodes_pruned_dominated, result.incumbent_updates,
        result.n_cost_evaluations,
    ) == (371, 53, 466, 5, 20130)


def test_hybrid_searches_and_polishes_to_a_wall_clock_deadline():
    """Each exact sub-solve gets seconds, not one unit, and the polish
    restarts until the deadline instead of stopping after one descent."""
    tracer = RecordingTracer()
    optimize(
        generate_query(DEFAULT_SPEC, 20, 1),
        method="EXACT",
        budget=WallClockBudget(2.0, clock=StallingClock(tick=1e-4)),
        trace=tracer,
    )
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["exact_nodes_expanded"] > 100
    assert counters["evaluations"] > 1000


def test_hybrid_beats_or_matches_greedy_quality():
    """The hybrid answer is at worst the polished start, never garbage."""
    graph = generate_query(DEFAULT_SPEC, 20, 7).graph
    result = hybrid_optimum(
        graph, MainMemoryCostModel(), budget=Budget.for_query(20, 9.0)
    )
    ii = optimize(
        generate_query(DEFAULT_SPEC, 20, 7),
        method="II",
        model=MainMemoryCostModel(),
        time_factor=9.0,
    )
    # Not a strict dominance claim — but within 2x of II means the
    # skeleton expansion + polish is doing real work.
    assert result.cost <= 2.0 * ii.cost
