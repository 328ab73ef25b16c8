"""Chaos tests: every fault class through ``optimize(..., resilient=True)``.

The acceptance bar: on a 20-join connected query, each injected failure
mode must still yield a plan that passes the verification gate, with
``degraded``/``failures`` accurately describing what happened — and a
seeded faulty run must be bit-for-bit reproducible.
"""

import pytest

from repro.catalog.relation import Relation
from repro.catalog.join_graph import JoinGraph
from repro.core.budget import Budget, WallClockBudget
from repro.core.optimizer import optimize
from repro.cost.memory import MainMemoryCostModel
from repro.experiments.sensitivity import perturb_graph
from repro.robustness import NoValidPlanError, verify_plan
from repro.robustness.resilience import FailureLog
from repro.utils.rng import derive_rng
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query
from tests.faults import (
    COST_EXCEPTION,
    INF_COST,
    NAN_COST,
    FaultSpec,
    FaultyCostModel,
    FaultyStrategy,
    StallingClock,
)

MODEL = MainMemoryCostModel()


def assert_gate_passes(result, graph, model=None):
    report = verify_plan(result.order, result.cost, graph, model or MODEL)
    assert report.ok, report.violations


def assert_plan_or_no_valid_plan(run, graph):
    """The resilient contract under a fault storm.

    Either a plan that passes the gate against the clean model, with
    ``degraded`` agreeing with the log, or ``NoValidPlanError`` whose
    log names both guards: the attempt and the last resort.
    """
    try:
        result = run()
    except NoValidPlanError as exc:
        stages = {record.stage for record in exc.failures}
        assert {"attempt", "last-resort"} <= stages, stages
        return
    assert_gate_passes(result, graph, model=MODEL)
    assert result.degraded == bool(result.failures)


class TestCleanRuns:
    def test_resilient_matches_non_resilient_bit_for_bit(self, medium_query):
        plain = optimize(medium_query, method="IAI", seed=3, time_factor=1.0)
        resilient = optimize(
            medium_query, method="IAI", seed=3, time_factor=1.0, resilient=True
        )
        assert list(resilient.order) == list(plain.order)
        assert resilient.cost == plain.cost
        assert resilient.degraded is False
        assert resilient.failures == ()

    def test_single_relation_query(self):
        graph = JoinGraph([Relation("R0", 100)], [])
        result = optimize(graph, resilient=True)
        assert list(result.order) == [0]
        assert result.cost == 0.0
        assert not result.degraded


class TestCostFaults:
    """NaN/inf cost storms and cost-model exceptions on a 20-join query."""

    @pytest.mark.parametrize("kind", [NAN_COST, INF_COST])
    def test_cost_storm_yields_verified_plan(self, medium_query, kind):
        graph = medium_query.graph
        model = FaultyCostModel(
            MODEL, [FaultSpec(kind=kind, probability=0.05)], seed=5
        )
        # NaN/inf plans are skipped by the evaluator, but the storm goes
        # on through the gate's re-price, so a plan may still be rejected.
        assert_plan_or_no_valid_plan(
            lambda: optimize(
                graph, method="IAI", seed=3, time_factor=1.0,
                resilient=True, model=model,
            ),
            graph,
        )
        assert model.n_injected > 0  # the storm actually happened

    def test_one_shot_nan_is_absorbed_cleanly(self, medium_query):
        graph = medium_query.graph
        model = FaultyCostModel(
            MODEL, [FaultSpec(kind=NAN_COST, at_evaluation=5)], seed=5
        )
        result = optimize(
            graph, method="IAI", seed=3, time_factor=1.0,
            resilient=True, model=model,
        )
        assert model.n_injected == 1
        assert_gate_passes(result, graph)
        # One poisoned plan out of hundreds never becomes the best: the
        # result is not degraded and the cost matches a clean recomputation.
        assert not result.degraded

    def test_exception_mid_search_keeps_best_so_far(self, medium_query):
        graph = medium_query.graph
        model = FaultyCostModel(
            MODEL, [FaultSpec(kind=COST_EXCEPTION, at_evaluation=900)], seed=5
        )
        result = optimize(
            graph, method="IAI", seed=3, time_factor=1.0,
            resilient=True, model=model,
        )
        assert_gate_passes(result, graph)
        assert result.degraded
        assert any(f.kind == "exception" for f in result.failures)
        assert any(f.stage == "attempt" for f in result.failures)

    def test_hopeless_model_raises_no_valid_plan(self, medium_query):
        # Every join cost NaN: neither the search nor the spanning order
        # can produce a verifiable cost — both guards must say so.
        graph = medium_query.graph
        model = FaultyCostModel(
            MODEL, [FaultSpec(kind=NAN_COST, every=1)], seed=5
        )
        with pytest.raises(NoValidPlanError) as info:
            optimize(
                graph, method="IAI", seed=3, time_factor=1.0,
                resilient=True, model=model,
            )
        failures = info.value.failures
        stages = {record.stage for record in failures}
        assert "attempt" in stages
        assert "last-resort" in stages


class TestStrategyFaults:
    def test_strategy_crash_recovers(self, medium_query):
        graph = medium_query.graph
        strategy = FaultyStrategy("IAI", fail_after=10)
        result = optimize(
            graph, method=strategy, seed=3, time_factor=1.0, resilient=True
        )
        assert_gate_passes(result, graph)
        assert result.degraded
        assert any(
            f.kind == "exception" and "crash" in f.detail
            for f in result.failures
        )

    def test_immediate_crash_falls_through_to_retries(self, medium_query):
        graph = medium_query.graph
        strategy = FaultyStrategy("IAI", fail_after=0)  # dies before any eval
        result = optimize(
            graph, method=strategy, seed=3, time_factor=1.0, resilient=True
        )
        assert_gate_passes(result, graph)
        assert result.degraded
        # The attempt recorded no plan before it crashed, so the spanning
        # order is the answer.
        assert result.method == "SPANNING"


class TestBudgetFaults:
    def test_budget_too_small_for_any_evaluation(self, medium_query):
        graph = medium_query.graph
        result = optimize(
            graph, method="IAI", seed=3, resilient=True,
            budget=Budget(limit=1.0),
        )
        assert_gate_passes(result, graph)
        assert result.degraded
        assert result.method == "SPANNING"
        assert all(f.kind == "no-plan" for f in result.failures)

    def test_units_never_exceed_the_callers_limit(self):
        # 19.5 units cannot pay for one 20-join evaluation.  Recovery runs
        # on the caller's budget, so the report stays within its limit.
        query = generate_query(DEFAULT_SPEC, 20, 1)
        budget = Budget(limit=19.5)
        result = optimize(
            query, method="IAI", seed=3, resilient=True, budget=budget
        )
        assert_gate_passes(result, query.graph)
        assert result.method == "SPANNING"
        assert result.units_spent == budget.spent <= 19.5

    def test_wall_clock_stall_before_first_evaluation(self, medium_query):
        graph = medium_query.graph
        # The machine stalls 100s on the attempt's very first budget check,
        # so the attempt records no plan and the spanning order answers.
        clock = StallingClock(tick=0.01, jumps={2: 100.0})
        budget = WallClockBudget(seconds=5.0, clock=clock)
        result = optimize(
            graph, method="IAI", seed=3, resilient=True, budget=budget
        )
        assert_gate_passes(result, graph)
        assert result.degraded
        assert result.failures[0].stage == "attempt"
        assert result.failures[0].kind == "no-plan"


class TestReproducibility:
    def test_seeded_fault_run_is_bit_for_bit_reproducible(self, medium_query):
        graph = medium_query.graph

        def run():
            model = FaultyCostModel(
                MainMemoryCostModel(),
                [FaultSpec(kind=NAN_COST, probability=0.05)],
                seed=5,
            )
            return optimize(
                graph, method="IAI", seed=3, time_factor=1.0,
                resilient=True, model=model,
            )

        def outcome():
            # The plan fields, or the raised log's records.
            try:
                result = run()
            except NoValidPlanError as exc:
                return exc.failures.as_tuple()
            return (
                tuple(result.order), result.cost, result.method,
                result.failures, result.trajectory,
            )

        assert outcome() == outcome()


class TestDisconnectedResilience:
    def test_clean_disconnected_run(self, two_components):
        result = optimize(
            two_components, method="II", seed=1, time_factor=1.0,
            resilient=True,
        )
        assert_gate_passes(result, two_components)
        assert not result.degraded

    def test_disconnected_budget_shared_when_component_falls_back(
        self, two_components
    ):
        # A budget large enough for the small component but starving the
        # big one: both components still land in the final order exactly
        # once, and the overall spend never exceeds the limit.
        budget = Budget(limit=10.0)
        result = optimize(
            two_components, method="II", seed=1, resilient=True, budget=budget
        )
        assert_gate_passes(result, two_components)
        assert sorted(result.order) == list(range(5))
        assert budget.spent <= budget.limit


class TestFailureLog:
    def test_summary_formats_records(self, medium_query):
        result = optimize(
            medium_query.graph, method="IAI", seed=3, resilient=True,
            budget=Budget(limit=1.0),
        )
        log = FailureLog(records=list(result.failures))
        text = log.summary()
        assert "failure(s) during optimization" in text
        assert "[attempt]" in text
        assert len(text.splitlines()) == len(result.failures) + 1

    def test_empty_log(self):
        log = FailureLog()
        assert not log
        assert len(log) == 0
        assert log.summary() == "no failures recorded"


class TestEstimateErrorInterplay:
    """Chaos interplay: lying cardinality estimates *and* injected cost
    faults at the same time. The resilient path must still return a
    plan that verifies against the catalog it optimized (the lying one),
    or say that none verified, and the failure log must record what was
    absorbed."""

    def test_fault_storm_on_perturbed_catalog_yields_verified_plan(
        self, medium_query
    ):
        lying = perturb_graph(
            medium_query.graph, derive_rng(11, "lying-catalog"), 10.0
        )
        model = FaultyCostModel(
            MODEL, [FaultSpec(kind=NAN_COST, probability=0.05)], seed=5
        )
        assert_plan_or_no_valid_plan(
            lambda: optimize(
                lying, method="IAI", seed=3, time_factor=1.0,
                resilient=True, model=model,
            ),
            lying,
        )
        assert model.n_injected > 0

    def test_exception_on_perturbed_catalog_populates_failure_log(
        self, medium_query
    ):
        lying = perturb_graph(
            medium_query.graph, derive_rng(2, "lying-catalog"), 5.0
        )
        model = FaultyCostModel(
            MODEL, [FaultSpec(kind=COST_EXCEPTION, at_evaluation=50)], seed=5
        )
        result = optimize(
            lying, method="IAI", seed=3, time_factor=1.0,
            resilient=True, model=model,
        )
        assert_gate_passes(result, lying, model=MODEL)
        assert result.degraded
        log = FailureLog(records=list(result.failures))
        assert log  # populated, not empty
        assert any(record.stage == "attempt" for record in log.records)

    def test_perturbation_alone_never_degrades(self, medium_query):
        """Lying estimates are not faults: without injection the
        resilient path must report a clean, non-degraded run."""
        lying = perturb_graph(
            medium_query.graph, derive_rng(7, "lying-catalog"), 10.0
        )
        result = optimize(
            lying, method="IAI", seed=3, time_factor=1.0, resilient=True
        )
        assert not result.degraded
        assert result.failures == ()
        assert_gate_passes(result, lying, model=MODEL)
