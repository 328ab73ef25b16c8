"""Tests for the combined strategies and the method registry."""

import pytest

from repro import DEFAULT_SPEC, generate_query
from repro.core.budget import Budget, WallClockBudget
from repro.core.combinations import (
    PAPER_METHODS,
    TOP_FIVE_METHODS,
    MethodParams,
    available_method_names,
    make_strategy,
)
from repro.core.optimizer import optimize
from repro.core.state import Evaluator
from repro.cost.memory import MainMemoryCostModel
from repro.plans.validity import is_valid_order
from repro.utils.rng import derive_rng


class TestRegistry:
    def test_all_paper_methods_available(self):
        names = available_method_names()
        for method in PAPER_METHODS:
            assert method in names

    def test_top_five_subset_of_paper_methods(self):
        assert set(TOP_FIVE_METHODS) <= set(PAPER_METHODS)

    def test_pure_heuristics_available(self):
        names = available_method_names()
        for name in ("AUG1", "AUG5", "KBZ3", "KBZ5", "AUG", "KBZ"):
            assert name in names

    def test_case_insensitive(self):
        assert make_strategy("iai").name == "IAI"

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            make_strategy("DOES-NOT-EXIST")

    def test_aug_alias_uses_criterion_3(self):
        assert make_strategy("AUG").name == "AUG3"

    def test_strategies_have_descriptions(self):
        for name in PAPER_METHODS:
            assert make_strategy(name).description


@pytest.mark.parametrize("method", PAPER_METHODS)
class TestEveryMethod:
    def test_produces_valid_plan(self, small_query, method):
        result = optimize(
            small_query, method=method, time_factor=1.0, units_per_n2=5, seed=2
        )
        assert is_valid_order(result.order, small_query.graph)
        assert result.cost > 0

    def test_respects_budget(self, small_query, method):
        n = small_query.n_joins
        limit = 1.0 * n * n * 5
        result = optimize(
            small_query, method=method, time_factor=1.0, units_per_n2=5, seed=2
        )
        assert result.units_spent <= limit + 1e-9

    def test_deterministic_given_seed(self, small_query, method):
        a = optimize(small_query, method=method, time_factor=0.5, units_per_n2=5, seed=9)
        b = optimize(small_query, method=method, time_factor=0.5, units_per_n2=5, seed=9)
        assert a.cost == b.cost
        assert a.order == b.order

    def test_seed_changes_search(self, small_query, method):
        """Different seeds explore differently (trajectories differ)."""
        a = optimize(small_query, method=method, time_factor=1.0, units_per_n2=5, seed=1)
        b = optimize(small_query, method=method, time_factor=1.0, units_per_n2=5, seed=2)
        # Heuristic-only phases are deterministic, so compare trajectories,
        # which include the stochastic II/SA phases for every method here.
        assert a.trajectory != b.trajectory or a.cost == b.cost


class TestMethodBehaviour:
    def test_more_time_never_hurts(self, small_query):
        short = optimize(small_query, "IAI", time_factor=0.5, units_per_n2=5, seed=4)
        long = optimize(small_query, "IAI", time_factor=5.0, units_per_n2=5, seed=4)
        assert long.cost <= short.cost

    def test_heuristic_methods_beat_worst_case(self, small_query):
        """AUG/KBZ states are far better than the worst valid plans."""
        aug = optimize(small_query, "AUG3", time_factor=9, units_per_n2=5, seed=0)
        sa = optimize(small_query, "SA", time_factor=9, units_per_n2=5, seed=0)
        assert aug.cost <= sa.cost * 10

    def test_iai_uses_augmentation_starts(self, small_query):
        """IAI's first start equals AUG's first state (same criterion)."""
        from repro.core.augmentation import augmentation_orders

        first_aug = next(augmentation_orders(small_query.graph))
        result = optimize(small_query, "IAI", time_factor=9, units_per_n2=5, seed=0)
        # The first trajectory entry corresponds to evaluating that state.
        model = MainMemoryCostModel()
        assert result.trajectory[0][1] == pytest.approx(
            model.plan_cost(first_aug, small_query.graph)
        )

    def test_pure_heuristic_stops_early(self, small_query):
        """AUG alone cannot use the whole budget (finite state set)."""
        result = optimize(small_query, "AUG3", time_factor=9, units_per_n2=30, seed=0)
        n = small_query.n_joins
        assert result.units_spent < 9 * n * n * 30

    def test_method_params_overrides(self):
        params = MethodParams()
        changed = params.with_overrides(patience=3)
        assert changed.patience == 3
        assert params.patience is None


class TestEvaluatorIntegration:
    def test_strategy_run_populates_evaluator(self, small_query):
        graph = small_query.graph
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=2000))
        strategy = make_strategy("AGI")
        strategy.run(evaluator, derive_rng(0, "t"), MethodParams())
        assert evaluator.best is not None
        assert evaluator.n_evaluations > 0


class TestIALWindowPick:
    """IAL asks its budget whether a local-improvement pass fits."""

    # (order, cost, units_spent, n_evaluations) of IAL on
    # generate_query(DEFAULT_SPEC, 9, 3), seed 2.  At 8,000 units the
    # window pick runs one (4, 3) pass, at 40,000 units one (5, 4) pass.
    PINS = {
        8000.0: (
            (0, 1, 2, 3, 7, 4, 9, 5, 8, 6), 46715.71885881774, 8000.0, 885
        ),
        40000.0: (
            (0, 1, 2, 3, 7, 4, 9, 5, 8, 6), 46715.71885881774, 40000.0, 4441
        ),
    }

    @pytest.mark.parametrize("limit", sorted(PINS))
    def test_unit_budgets_pinned(self, limit):
        query = generate_query(DEFAULT_SPEC, 9, 3)
        result = optimize(query, "IAL", budget=Budget(limit=limit), seed=2)
        assert (
            result.order.positions,
            result.cost,
            result.units_spent,
            result.n_evaluations,
        ) == self.PINS[limit]

    def test_wall_clock_runs_no_pass(self, monkeypatch):
        """A wall clock promises no work, however many seconds are left."""
        import repro.core.combinations as combinations
        from tests.faults import StallingClock

        local_improve = combinations.local_improve
        passes = []

        def spy(*args, **kwargs):
            passes.append(args[2:4])
            return local_improve(*args, **kwargs)

        monkeypatch.setattr(combinations, "local_improve", spy)
        # The clock stands still until its 5,000th read, then jumps past
        # the deadline: 600 s are left when IAL picks its window.
        budget = WallClockBudget(
            600.0, clock=StallingClock(jumps={5000: 1000.0})
        )
        query = generate_query(DEFAULT_SPEC, 5, 7)
        result = optimize(query, "IAL", budget=budget, seed=2)
        assert passes == []
        assert is_valid_order(result.order, query.graph)
