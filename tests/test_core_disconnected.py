"""Cross-product postponement: one path for every method and budget.

``postpone_cross_products`` splits a disconnected graph, solves each
component on a share of the budget proportional to its ``N^2`` and
concatenates the component orders smallest result first.  ``optimize``,
the resilient chain and hybrid EXACT all go through it, so a wall clock
works on a disconnected graph for every method, and unit-budget results
keep the values pinned below.
"""

from __future__ import annotations

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.relation import Relation
from repro.core.budget import Budget, WallClockBudget
from repro.core.optimizer import optimize, postpone_cross_products
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder
from repro.robustness import verify_plan
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query

from tests.faults import FaultSpec, FaultyCostModel, StallingClock

from .conftest import disjoint_union, two_component_graph

MODELS = {"memory": MainMemoryCostModel, "disk": DiskCostModel}
WALL_CLOCK_METHODS = ("II", "IAI", "SA", "AGI", "KBI", "EXACT")


def _eighteen_relations() -> JoinGraph:
    """Two generated components of 10 and 8 relations."""
    return disjoint_union(
        generate_query(DEFAULT_SPEC, 9, 3).graph,
        generate_query(DEFAULT_SPEC, 7, 5).graph,
    )


def _four_parts() -> JoinGraph:
    """Components of 5, 2 and 7 relations, plus one lone relation."""
    return disjoint_union(
        generate_query(DEFAULT_SPEC, 4, 1).graph,
        generate_query(DEFAULT_SPEC, 1, 2).graph,
        generate_query(DEFAULT_SPEC, 6, 3).graph,
        JoinGraph([Relation("lone", 321)], []),
    )


def _wall_clock() -> WallClockBudget:
    return WallClockBudget(1.0, clock=StallingClock(tick=1e-4))


class TestPostponeCrossProducts:
    def test_solves_each_component_on_its_share(self):
        graph = _four_parts()
        budget = Budget(limit=1000.0)
        calls = []

        def solve(component, subgraph, share):
            calls.append((component, share.limit))
            share.charge(10.0)
            return JoinOrder(range(subgraph.n_relations))

        order = postpone_cross_products(graph, budget, solve)
        assert sorted(order) == list(range(graph.n_relations))
        # Weights (N - 1)^2 of 16, 1, 36 and 1 (the lone relation, never
        # solved), each share cut from what the earlier ones left.
        assert [component for component, _ in calls] == [
            tuple(range(0, 5)), (5, 6), tuple(range(7, 14)),
        ]
        assert [limit for _, limit in calls] == [
            1000.0 * 16 / 54, 990.0 * 1 / 54, 980.0 * 36 / 54,
        ]
        assert budget.spent == 30.0

    def test_components_go_smallest_result_first(self):
        graph = two_component_graph()
        order = postpone_cross_products(
            graph,
            Budget.unlimited(),
            lambda component, subgraph, share: JoinOrder(
                range(subgraph.n_relations)
            ),
        )
        # {R2-R3-R4} ends at 160 rows, {R0-R1} at 200.
        assert list(order) == [2, 3, 4, 0, 1]


@pytest.mark.slow
@pytest.mark.parametrize("method", WALL_CLOCK_METHODS)
class TestWallClockOnDisconnectedGraphs:
    def test_returns_a_verified_plan(self, method):
        graph = _eighteen_relations()
        result = optimize(graph, method=method, budget=_wall_clock())
        report = verify_plan(
            result.order, result.cost, graph, MainMemoryCostModel()
        )
        assert report.ok, report.violations

    def test_rerun_returns_the_same_plan(self, method):
        graph = _eighteen_relations()
        first = optimize(graph, method=method, budget=_wall_clock())
        again = optimize(graph, method=method, budget=_wall_clock())
        assert (first.order, first.cost) == (again.order, again.cost)

    def test_resilient_run_is_not_degraded(self, method):
        result = optimize(
            _eighteen_relations(), method=method, budget=_wall_clock(),
            resilient=True,
        )
        assert not result.degraded, result.failures
        assert result.method == method


#: (graph, method, model) -> (order, cost, units_spent, n_evaluations) at
#: ``seed=3, time_factor=2.0``, plain and resilient alike.  Pinned: the
#: shared path must give each caller the result its own loop gave.
PINNED = {
    ("two-chains", "II", "memory"): ((4, 3, 2, 1, 0), 129868.0, 806.4, 499),
    ("two-chains", "II", "disk"): ((4, 3, 2, 1, 0), 6023.2, 806.4, 499),
    ("two-chains", "SA", "memory"): ((4, 3, 2, 1, 0), 129868.0, 806.4, 499),
    ("two-chains", "SA", "disk"): ((2, 3, 4, 1, 0), 6023.2, 806.4, 499),
    ("two-chains", "EXACT", "memory"): ((4, 3, 2, 1, 0), 129868.0, 14.0, 2),
    ("two-chains", "EXACT", "disk"): ((3, 2, 4, 0, 1), 4203.2, 14.0, 2),
    ("four-parts", "II", "memory"): (
        (5, 6, 14, 0, 1, 4, 2, 3, 9, 12, 7, 10, 11, 8, 13),
        2620915793181142.0, 9052.565157750343, 1926,
    ),
    ("four-parts", "II", "disk"): (
        (6, 5, 14, 0, 1, 4, 2, 3, 9, 12, 7, 10, 11, 8, 13),
        126384162412695.28, 9052.565157750343, 1926,
    ),
    ("four-parts", "SA", "memory"): (
        (5, 6, 14, 0, 1, 4, 2, 3, 9, 12, 7, 10, 11, 8, 13),
        2620915793181142.0, 9052.565157750343, 1926,
    ),
    ("four-parts", "SA", "disk"): (
        (6, 5, 14, 1, 0, 4, 2, 3, 12, 9, 7, 10, 11, 8, 13),
        126381756678040.56, 9052.565157750343, 1926,
    ),
    ("four-parts", "EXACT", "memory"): (
        (5, 6, 14, 0, 1, 4, 2, 3, 9, 12, 7, 10, 11, 8, 13),
        2620915793181142.0, 423.7999999999997, 3,
    ),
    ("four-parts", "EXACT", "disk"): (
        (6, 5, 14, 1, 0, 4, 2, 3, 12, 9, 7, 10, 11, 8, 13),
        126381756678040.56, 423.7999999999997, 3,
    ),
}
GRAPHS = {"two-chains": two_component_graph, "four-parts": _four_parts}


@pytest.mark.parametrize("resilient", (False, True))
@pytest.mark.parametrize("key", sorted(PINNED))
def test_unit_budget_results_are_pinned(key, resilient):
    graph_name, method, model = key
    result = optimize(
        GRAPHS[graph_name](), method=method, model=MODELS[model](), seed=3,
        time_factor=2.0, resilient=resilient,
    )
    assert (
        tuple(result.order), result.cost, result.units_spent,
        result.n_evaluations,
    ) == PINNED[key]
    assert not result.degraded


def test_recovery_work_is_charged_before_later_components_share():
    """A degraded component's retries run on carves of their own; the
    caller is charged for them, so later components' shares, and so the
    plan and its accounting, keep their pinned values."""
    graph = disjoint_union(
        generate_query(DEFAULT_SPEC, 4, 1).graph,
        generate_query(DEFAULT_SPEC, 6, 3).graph,
        generate_query(DEFAULT_SPEC, 5, 2).graph,
    )
    model = FaultyCostModel(
        MainMemoryCostModel(), [FaultSpec("nan-cost", probability=0.02)],
        seed=11,
    )
    budget = Budget.for_query(graph.n_joins, 1.0)
    result = optimize(
        graph, model=model, method="II", seed=11, budget=budget,
        resilient=True,
    )
    assert result.degraded and len(result.failures) == 3
    assert tuple(result.order) == (
        12, 13, 16, 15, 14, 17, 0, 1, 4, 2, 3, 7, 10, 5, 8, 9, 6, 11,
    )
    assert result.cost == 4.798157255712512e16
    assert (result.units_spent, result.n_evaluations) == (
        6974.031296751823, 1349,
    )
    assert budget.spent == result.units_spent
