"""Tests for the 2PO demonstration strategy and the wall-clock budget."""

import pytest

from repro.core.budget import Budget, BudgetExhausted, WallClockBudget
from repro.core.optimizer import optimize
from repro.plans.validity import is_valid_order
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query
from tests.faults import StallingClock


class TestTwoPhase:
    def test_registered(self):
        from repro.core.combinations import make_strategy

        strategy = make_strategy("2PO")
        assert strategy.name == "2PO"
        assert "SA" in strategy.description or "anneal" in strategy.description

    def test_produces_valid_plan(self, small_query):
        result = optimize(
            small_query, method="2PO", time_factor=2, units_per_n2=10, seed=1
        )
        assert is_valid_order(result.order, small_query.graph)

    def test_competitive_with_ii(self, small_query):
        two_phase = optimize(
            small_query, method="2PO", time_factor=5, units_per_n2=10, seed=2
        )
        ii = optimize(
            small_query, method="II", time_factor=5, units_per_n2=10, seed=2
        )
        assert two_phase.cost <= ii.cost * 1.5

    def test_deterministic(self, small_query):
        a = optimize(small_query, method="2PO", time_factor=2, units_per_n2=10, seed=5)
        b = optimize(small_query, method="2PO", time_factor=2, units_per_n2=10, seed=5)
        assert a.cost == b.cost and a.order == b.order

    def test_respects_budget(self, small_query):
        n = small_query.n_joins
        result = optimize(
            small_query, method="2PO", time_factor=2, units_per_n2=10, seed=1
        )
        assert result.units_spent <= 2 * n * n * 10 + 1e-9

    def test_unit_budget_run_is_pinned(self):
        """Unit-budget 2PO keeps its result.  Its II phase ends with the
        descent that crosses 70% of the units (here at 10,760.8 of
        13,500), and the last improvement comes from the anneal, so the
        pin covers both phases."""
        result = optimize(
            generate_query(DEFAULT_SPEC, 15, 4), method="2PO",
            time_factor=2.0, seed=1,
        )
        assert tuple(result.order) == (
            6, 1, 0, 5, 10, 15, 12, 14, 3, 9, 4, 7, 11, 2, 8, 13,
        )
        assert (result.cost, result.units_spent, result.n_evaluations) == (
            2417868833.0558095, 13500.0, 898,
        )
        assert len(result.trajectory) == 32
        assert result.trajectory[-1] == (12470.800000000001, 2417868833.0558095)

    def test_wall_clock_ends_the_ii_phase_on_its_seconds(self):
        """The II phase ends after 70% of the seconds left, not when the
        units spent pass 70% of the seconds left.  II alone prices 20,000
        plans on this clock; read as units, the seconds ended 2PO's II
        phase after its first descent, and it priced 2,066."""
        result = optimize(
            generate_query(DEFAULT_SPEC, 15, 4), method="2PO",
            budget=WallClockBudget(2.0, clock=StallingClock(tick=1e-4)),
        )
        assert result.n_evaluations > 10_000


class TestWallClockBudget:
    def test_exhausts_by_time(self):
        ticks = iter([0.0, 0.1, 0.2, 0.9, 1.5, 2.0])
        budget = WallClockBudget(seconds=1.0, clock=lambda: next(ticks))
        budget.charge(5)  # elapsed 0.1
        budget.charge(5)  # elapsed 0.2
        budget.charge(5)  # elapsed 0.9
        with pytest.raises(BudgetExhausted):
            budget.charge(5)  # elapsed 1.5
        assert budget.spent == 15

    def test_remaining_in_seconds(self):
        ticks = iter([0.0, 0.25])
        budget = WallClockBudget(seconds=1.0, clock=lambda: next(ticks))
        assert budget.remaining == pytest.approx(0.75)

    def test_rejects_nonpositive_seconds(self):
        with pytest.raises(ValueError):
            WallClockBudget(seconds=0)

    def test_optimize_with_wall_clock(self, small_query):
        budget = WallClockBudget(seconds=0.2)
        result = optimize(small_query, method="II", budget=budget, seed=1)
        assert result.cost > 0
        assert budget.elapsed >= 0.2 or result.n_evaluations > 0

    def test_is_a_budget(self):
        assert isinstance(WallClockBudget(seconds=1.0), Budget)

    def test_share_used_counts_seconds(self):
        clock = StallingClock(tick=0.125)
        budget = WallClockBudget(seconds=1.0, clock=clock)  # starts at 0.125
        budget.charge(1e9)  # units do not move a wall clock's share
        done = budget.share_used(1, 2)  # at 0.375, 0.75 s left: ends at 0.75
        assert [done() for _ in range(3)] == [False, False, True]


class TestShareUsed:
    def test_counts_units_left_when_taken(self):
        budget = Budget(limit=100.0)
        budget.charge(20.0)
        done = budget.share_used(3, 4)  # 60 of the 80 units left
        budget.charge(59.0)
        assert not done()
        budget.charge(1.0)
        assert done()
