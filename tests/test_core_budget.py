"""Tests for the optimization budget (the abstract clock)."""

import math

import pytest

from repro.core.budget import Budget, BudgetExhausted


class TestBudget:
    def test_charge_accumulates(self):
        budget = Budget(limit=10)
        budget.charge(3)
        budget.charge(4)
        assert budget.spent == 7
        assert budget.remaining == 3

    def test_charge_beyond_limit_raises(self):
        budget = Budget(limit=10)
        budget.charge(9)
        with pytest.raises(BudgetExhausted):
            budget.charge(2)

    def test_exhausting_charge_pins_spent_to_limit(self):
        budget = Budget(limit=10)
        with pytest.raises(BudgetExhausted):
            budget.charge(11)
        assert budget.spent == 10
        assert budget.exhausted

    def test_exact_limit_allowed(self):
        budget = Budget(limit=10)
        budget.charge(10)
        assert budget.exhausted
        assert budget.remaining == 0

    def test_can_afford(self):
        budget = Budget(limit=10)
        budget.charge(6)
        assert budget.can_afford(4)
        assert not budget.can_afford(5)

    def test_rejects_nonpositive_limit(self):
        with pytest.raises(ValueError):
            Budget(limit=0)

    def test_for_query_scales_with_n_squared(self):
        a = Budget.for_query(10, time_factor=1.0, units_per_n2=2.0)
        b = Budget.for_query(20, time_factor=1.0, units_per_n2=2.0)
        assert b.limit == pytest.approx(4 * a.limit)
        assert a.limit == pytest.approx(200.0)

    def test_for_query_scales_with_factor(self):
        a = Budget.for_query(10, time_factor=1.5)
        b = Budget.for_query(10, time_factor=3.0)
        assert b.limit == pytest.approx(2 * a.limit)

    @pytest.mark.parametrize(
        "n_joins, time_factor, units_per_n2",
        ((10, math.inf, 30.0), (10, 1e308, 30.0), (10**160, 1.0, 1.0)),
        ids=("inf", "overflow", "overflow-n"),
    )
    def test_for_query_rejects_non_finite_limit(
        self, n_joins, time_factor, units_per_n2
    ):
        # An infinite limit would never stop II/IAI; unlimited() is the
        # explicit way to ask for one.
        with pytest.raises(ValueError, match="not finite"):
            Budget.for_query(n_joins, time_factor, units_per_n2)

    def test_unlimited_never_exhausts(self):
        budget = Budget.unlimited()
        budget.charge(1e18)
        assert not budget.exhausted
        assert budget.remaining == math.inf


class TestBudgetEdgeCases:
    """Exact-at-limit semantics and the budget shares."""

    def test_charge_landing_exactly_on_limit_succeeds(self):
        budget = Budget(limit=10)
        budget.charge(10)  # spent + units == limit is affordable
        assert budget.spent == 10
        assert budget.exhausted
        assert budget.remaining == 0

    def test_next_charge_after_exact_exhaustion_raises(self):
        budget = Budget(limit=10)
        budget.charge(10)
        with pytest.raises(BudgetExhausted):
            budget.charge(1e-9)
        assert budget.spent == 10  # pinned, not overshot

    def test_can_afford_at_exact_boundary(self):
        budget = Budget(limit=10)
        budget.charge(4)
        assert budget.can_afford(6)
        assert not budget.can_afford(6.0000001)

    def test_share_is_part_of_what_is_left(self):
        budget = Budget(limit=100)
        budget.charge(40)
        share = budget.share(3, 4)
        assert share.limit == 60 * 3 / 4
        assert share.spent == 0
        assert budget.spent == 40  # taking a share charges nothing

    def test_share_is_at_least_one_unit(self):
        budget = Budget(limit=10)
        budget.charge(10)
        assert budget.share(1, 3).limit == 1.0

    def test_share_of_an_unlimited_budget_is_unlimited(self):
        share = Budget.unlimited().share(1, 1000)
        assert share.limit == math.inf
        assert share.can_afford(1e300)


class TestWallClockBudgetWithStalls:
    """Wall-clock expiry driven by a deterministic stalling clock."""

    def test_stall_exhausts_budget_between_charges(self):
        from repro.core.budget import WallClockBudget
        from tests.faults import StallingClock

        clock = StallingClock(tick=0.1, jumps={4: 30.0})
        budget = WallClockBudget(seconds=5.0, clock=clock)  # clock call 1
        budget.charge(1.0)  # call 2: 0.2s elapsed
        budget.charge(1.0)  # call 3: 0.3s elapsed
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            budget.charge(1.0)  # call 4 stalls 30s
        assert budget.spent == 2.0  # work units still only count real work

    def test_remaining_is_seconds_not_units(self):
        from repro.core.budget import WallClockBudget
        from tests.faults import StallingClock

        clock = StallingClock(tick=1.0)
        budget = WallClockBudget(seconds=10.0, clock=clock)  # clock call 1
        budget.charge(100.0)  # huge unit charge is fine; only time matters
        # Reading ``remaining`` is clock call 3: 2s elapsed since the start.
        assert budget.remaining == pytest.approx(8.0)

    def test_can_never_promise_that_work_fits(self):
        from repro.core.budget import WallClockBudget
        from tests.faults import StallingClock

        budget = WallClockBudget(seconds=10.0, clock=StallingClock())
        assert not budget.exhausted
        assert not budget.can_afford(0.0)

    def test_share_is_part_of_the_seconds_left_from_now(self):
        from repro.core.budget import WallClockBudget
        from tests.faults import StallingClock

        clock = StallingClock(tick=1.0)
        budget = WallClockBudget(seconds=10.0, clock=clock)  # call 1: t=1
        share = budget.share(1, 2)  # call 2: t=2, so 9 s left, 4.5 shared
        assert isinstance(share, WallClockBudget)
        assert share.seconds == 4.5
        assert share.spent == 0.0
        share.charge(1.0)  # call 3: 1 s into the share
        assert share.remaining == 2.5  # call 4: 2 s in, on the same clock
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            for _ in range(10):
                share.charge(1.0)
        assert not budget.exhausted

    def test_share_taken_after_the_deadline_is_already_exhausted(self):
        from repro.core.budget import WallClockBudget
        from tests.faults import StallingClock

        clock = StallingClock(tick=0.0, jumps={2: 60.0})
        budget = WallClockBudget(seconds=5.0, clock=clock)  # call 1
        share = budget.share(1, 2)  # call 2 stalls past the deadline
        assert share.seconds == 0.0
        assert share.exhausted
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            share.charge(1.0)
        with pytest.raises(ValueError):
            WallClockBudget(seconds=0.0)  # the share skips this check
