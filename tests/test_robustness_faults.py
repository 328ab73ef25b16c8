"""Tests for the deterministic fault-injection harness."""

import math

import pytest

from repro.core.budget import Budget, BudgetExhausted, WallClockBudget
from repro.core.combinations import MethodParams, make_strategy
from repro.core.state import Evaluator
from repro.cost.memory import MainMemoryCostModel
from repro.plans.join_order import JoinOrder
from repro.robustness import InjectedFault
from repro.utils.rng import derive_rng
from tests.faults import (
    COST_EXCEPTION,
    INF_COST,
    NAN_COST,
    NEGATIVE_COST,
    STALL,
    FaultSpec,
    FaultyCostModel,
    FaultyStrategy,
    StallingClock,
)


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meltdown", at_evaluation=1)

    def test_requires_exactly_one_trigger(self):
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind=NAN_COST)
        with pytest.raises(ValueError, match="exactly one"):
            FaultSpec(kind=NAN_COST, at_evaluation=1, every=2)

    def test_at_evaluation_fires_once(self):
        spec = FaultSpec(kind=NAN_COST, at_evaluation=3)
        rng = derive_rng(0, "test")
        fired = [spec.fires(i, rng) for i in range(1, 10)]
        assert fired == [False, False, True] + [False] * 6

    def test_every_fires_periodically(self):
        spec = FaultSpec(kind=NAN_COST, every=4)
        rng = derive_rng(0, "test")
        fired = [i for i in range(1, 13) if spec.fires(i, rng)]
        assert fired == [4, 8, 12]


class TestFaultyCostModel:
    def _model(self, faults, seed=0, **kwargs):
        return FaultyCostModel(MainMemoryCostModel(), faults, seed=seed, **kwargs)

    def test_nan_injection(self, chain):
        model = self._model([FaultSpec(kind=NAN_COST, at_evaluation=1)])
        order = JoinOrder(range(chain.n_relations))
        assert math.isnan(model.plan_cost(order, chain))
        assert model.n_injected == 1
        # The fault was one-shot: the next pricing is healthy and agrees
        # with the unwrapped model.
        clean = MainMemoryCostModel().plan_cost(order, chain)
        assert model.plan_cost(order, chain) == pytest.approx(clean)

    def test_inf_and_negative_injection(self, chain):
        order = JoinOrder(range(chain.n_relations))
        assert math.isinf(
            self._model([FaultSpec(kind=INF_COST, at_evaluation=2)]).plan_cost(
                order, chain
            )
        )
        clean = MainMemoryCostModel().plan_cost(order, chain)
        poisoned = self._model(
            [FaultSpec(kind=NEGATIVE_COST, at_evaluation=1)]
        ).plan_cost(order, chain)
        assert poisoned < clean

    def test_exception_injection(self, chain):
        model = self._model([FaultSpec(kind=COST_EXCEPTION, at_evaluation=3)])
        order = JoinOrder(range(chain.n_relations))
        with pytest.raises(InjectedFault, match="evaluation 3"):
            model.plan_cost(order, chain)

    def test_probability_faults_are_seed_deterministic(self, chain):
        order = JoinOrder(range(chain.n_relations))

        def run(seed):
            model = self._model(
                [FaultSpec(kind=NAN_COST, probability=0.3)], seed=seed
            )
            costs = [model.plan_cost(order, chain) for _ in range(20)]
            return [math.isnan(c) for c in costs], model.n_injected

        assert run(5) == run(5)
        assert run(5) != run(6)  # different stream, different fault plan

    def test_stall_advances_injected_clock(self, chain):
        clock = StallingClock(tick=0.001)
        model = self._model(
            [FaultSpec(kind=STALL, at_evaluation=1, stall_seconds=100.0)],
            stall_hook=clock.advance,
        )
        order = JoinOrder(range(chain.n_relations))
        before = clock.now
        cost = model.plan_cost(order, chain)  # stall, then price normally
        assert clock.now - before >= 100.0
        assert math.isfinite(cost)


class TestStallingClock:
    def test_ticks_and_jumps(self):
        clock = StallingClock(tick=1.0, jumps={3: 10.0})
        assert clock() == pytest.approx(1.0)
        assert clock() == pytest.approx(2.0)
        assert clock() == pytest.approx(13.0)  # tick + scheduled jump

    def test_expires_wall_clock_budget_without_waiting(self):
        clock = StallingClock(tick=0.0, jumps={3: 60.0})
        budget = WallClockBudget(seconds=5.0, clock=clock)  # consumes call 1
        budget.charge(1.0)  # call 2: clock at 0, fine
        with pytest.raises(BudgetExhausted, match="wall-clock"):
            budget.charge(1.0)  # call 3 hits the 60s stall


class TestFaultyStrategy:
    def test_crashes_but_keeps_best_so_far(self, small_query):
        graph = small_query.graph
        strategy = FaultyStrategy("II", fail_after=5)
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget.unlimited())
        rng = derive_rng(0, "test")
        with pytest.raises(InjectedFault, match="after 5 evaluations"):
            strategy.run(evaluator, rng, MethodParams())
        assert evaluator.n_evaluations == 5
        assert evaluator.best is not None  # best-so-far survives the crash

    def test_wraps_either_name_or_instance(self):
        by_name = FaultyStrategy("IAI", fail_after=1)
        by_instance = FaultyStrategy(make_strategy("IAI"), fail_after=1)
        assert by_name.name == by_instance.name == "IAI"
