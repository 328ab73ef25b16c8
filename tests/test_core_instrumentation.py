"""Tests for SA chain instrumentation and params plumbing."""

import random

from repro.core.annealing import AnnealingSchedule, ChainStats, simulated_annealing
from repro.core.budget import Budget
from repro.core.combinations import MethodParams
from repro.core.moves import MoveSet
from repro.core.optimizer import optimize
from repro.core.state import Evaluator
from repro.cost.memory import MainMemoryCostModel
from repro.plans.validity import random_valid_order


class TestChainObserver:
    def test_observer_sees_chains(self, medium_query):
        graph = medium_query.graph
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=20_000))
        rng = random.Random(0)
        chains: list[ChainStats] = []
        simulated_annealing(
            random_valid_order(graph, rng),
            evaluator,
            MoveSet(),
            rng,
            AnnealingSchedule(),
            observer=chains.append,
        )
        assert chains
        indexes = [stats.chain_index for stats in chains]
        assert indexes == list(range(len(chains)))

    def test_temperature_monotone_decreasing(self, medium_query):
        graph = medium_query.graph
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=20_000))
        rng = random.Random(1)
        chains: list[ChainStats] = []
        simulated_annealing(
            random_valid_order(graph, rng),
            evaluator,
            MoveSet(),
            rng,
            observer=chains.append,
        )
        temperatures = [stats.temperature for stats in chains]
        assert all(a >= b for a, b in zip(temperatures, temperatures[1:]))

    def test_best_cost_monotone_nonincreasing(self, medium_query):
        graph = medium_query.graph
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=20_000))
        rng = random.Random(2)
        chains: list[ChainStats] = []
        simulated_annealing(
            random_valid_order(graph, rng),
            evaluator,
            MoveSet(),
            rng,
            observer=chains.append,
        )
        bests = [stats.best_cost for stats in chains]
        assert all(a >= b for a, b in zip(bests, bests[1:]))

    def test_acceptance_ratio_in_unit_interval(self, medium_query):
        graph = medium_query.graph
        evaluator = Evaluator(graph, MainMemoryCostModel(), Budget(limit=20_000))
        rng = random.Random(3)
        chains: list[ChainStats] = []
        simulated_annealing(
            random_valid_order(graph, rng),
            evaluator,
            MoveSet(),
            rng,
            observer=chains.append,
        )
        assert all(0.0 <= stats.acceptance_ratio <= 1.0 for stats in chains)


class TestRegistryCompleteness:
    def test_baselines_and_two_phase_registered(self):
        from repro.core.combinations import available_method_names

        names = available_method_names()
        for name in ("RANDOM", "WALK", "2PO"):
            assert name in names


class TestParamsPlumbing:
    def test_custom_move_set_used(self, small_query):
        """optimize() threads MethodParams down to the strategies."""
        swap_only = MethodParams(move_set=MoveSet(swap_probability=1.0))
        insert_only = MethodParams(move_set=MoveSet(swap_probability=0.0))
        a = optimize(
            small_query, "II", time_factor=1, units_per_n2=5, seed=3, params=swap_only
        )
        b = optimize(
            small_query, "II", time_factor=1, units_per_n2=5, seed=3,
            params=insert_only,
        )
        # Same seed, different move sets: the searches diverge.
        assert a.trajectory != b.trajectory

    def test_custom_patience_used(self, small_query):
        impatient = MethodParams(patience=1)
        patient = MethodParams(patience=200)
        a = optimize(
            small_query, "II", time_factor=1, units_per_n2=5, seed=3, params=impatient
        )
        b = optimize(
            small_query, "II", time_factor=1, units_per_n2=5, seed=3, params=patient
        )
        assert a.trajectory != b.trajectory

    def test_custom_augmentation_criterion(self, small_query):
        from repro.core.augmentation import AugmentationCriterion

        by_cardinality = MethodParams(
            augmentation_criterion=AugmentationCriterion.MIN_CARDINALITY
        )
        a = optimize(
            small_query, "AGI", time_factor=0.5, units_per_n2=5, seed=3,
            params=by_cardinality,
        )
        b = optimize(small_query, "AGI", time_factor=0.5, units_per_n2=5, seed=3)
        assert a.trajectory != b.trajectory or a.cost == b.cost
