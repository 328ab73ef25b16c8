"""Tests for the plan-verification gate."""

import math

import pytest

from repro.core.optimizer import optimize
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import first_invalid_position
from repro.robustness import (
    PlanVerificationError,
    verify_or_raise,
    verify_plan,
)


class TestVerifyPlan:
    def test_accepts_real_optimizer_output(self, chain):
        model = MainMemoryCostModel()
        result = optimize(chain, method="II", model=model, time_factor=1.0)
        report = verify_plan(result.order, result.cost, chain, model)
        assert report.ok
        assert report.violations == ()
        assert bool(report)

    def test_rejects_incomplete_permutation(self, chain):
        model = MainMemoryCostModel()
        report = verify_plan(JoinOrder([0, 1, 2]), 1.0, chain, model)
        assert not report.ok
        assert "not a permutation" in report.violations[0]

    def test_rejects_foreign_relation_indices(self, chain):
        # Right length, wrong index set — an order built for another graph.
        model = MainMemoryCostModel()
        report = verify_plan(JoinOrder([0, 1, 2, 3, 5]), 1.0, chain, model)
        assert not report.ok
        assert "not a permutation" in report.violations[0]

    def test_rejects_premature_cross_product(self, chain):
        # R0 and R4 are the chain's endpoints: placing them first forces a
        # cross product long before the chain connects them.
        model = MainMemoryCostModel()
        order = JoinOrder([0, 4, 1, 2, 3])
        assert first_invalid_position(order, chain) is not None
        cost = 1.0
        report = verify_plan(order, cost, chain, model)
        assert not report.ok
        assert any("cross product" in v for v in report.violations)

    @pytest.mark.parametrize("bad_cost", [float("nan"), math.inf, -math.inf])
    def test_rejects_non_finite_cost(self, chain, bad_cost):
        model = MainMemoryCostModel()
        result = optimize(chain, method="II", model=model, time_factor=1.0)
        report = verify_plan(result.order, bad_cost, chain, model)
        assert not report.ok
        assert any("not finite" in v for v in report.violations)

    def test_rejects_negative_cost(self, chain):
        model = MainMemoryCostModel()
        result = optimize(chain, method="II", model=model, time_factor=1.0)
        report = verify_plan(result.order, -5.0, chain, model)
        assert not report.ok
        assert any("negative" in v for v in report.violations)

    def test_rejects_cost_disagreement(self, chain):
        model = MainMemoryCostModel()
        result = optimize(chain, method="II", model=model, time_factor=1.0)
        report = verify_plan(result.order, result.cost * 2, chain, model)
        assert not report.ok
        assert any("disagrees" in v for v in report.violations)

    def test_verify_or_raise(self, chain):
        model = MainMemoryCostModel()
        result = optimize(chain, method="II", model=model, time_factor=1.0)
        verify_or_raise(result.order, result.cost, chain, model)  # no raise
        with pytest.raises(PlanVerificationError) as info:
            verify_or_raise(result.order, result.cost * 2, chain, model)
        assert info.value.violations


class TestOptimizerGate:
    def test_negative_cost_model_is_rejected(self, chain):
        class NegativeModel(MainMemoryCostModel):
            name = "negative"

            def join_cost(self, outer_size, inner_size, result_size):
                return -super().join_cost(outer_size, inner_size, result_size)

        with pytest.raises(PlanVerificationError, match="negative"):
            optimize(chain, method="II", model=NegativeModel(), time_factor=1.0)

    def test_disconnected_results_pass_the_gate(self, two_components):
        model = MainMemoryCostModel()
        result = optimize(
            two_components, method="II", model=model, time_factor=1.0
        )
        assert verify_plan(result.order, result.cost, two_components, model).ok
