"""Tests for the experiment runner."""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.workloads.benchmarks import DEFAULT_SPEC, generate_benchmark


@pytest.fixture(scope="module")
def tiny_queries():
    return generate_benchmark(
        DEFAULT_SPEC, n_values=(10,), queries_per_n=3, seed=0
    )


@pytest.fixture(scope="module")
def tiny_result(tiny_queries):
    config = ExperimentConfig(
        methods=("IAI", "II"),
        time_factors=(0.5, 1.0, 2.0),
        units_per_n2=5,
        replicates=2,
        seed=0,
    )
    return run_experiment(tiny_queries, config)


class TestConfig:
    def test_rejects_empty_methods(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=(), time_factors=(1.0,))

    def test_rejects_empty_factors(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("II",), time_factors=())

    def test_rejects_zero_replicates(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=("II",), time_factors=(1.0,), replicates=0)

    def test_max_factor(self):
        config = ExperimentConfig(methods=("II",), time_factors=(1.0, 3.0))
        assert config.max_factor == 3.0

    def test_all_methods_includes_references_once(self):
        config = ExperimentConfig(
            methods=("II", "IAI"),
            time_factors=(1.0,),
            reference_methods=("IAI", "SA"),
        )
        assert config.all_methods == ("II", "IAI", "SA")


class TestRunExperiment:
    def test_result_structure(self, tiny_result):
        assert tiny_result.n_queries == 3
        assert set(tiny_result.mean_scaled) == {"IAI", "II"}
        for method in ("IAI", "II"):
            assert set(tiny_result.mean_scaled[method]) == {0.5, 1.0, 2.0}

    def test_scaled_costs_at_least_one_at_max_factor(self, tiny_result):
        """The scaling base is the best over methods: minimum ratio is 1."""
        at_max = [tiny_result.at(m, 2.0) for m in ("IAI", "II")]
        assert min(at_max) >= 1.0 - 1e-9

    def test_monotone_in_time(self, tiny_result):
        for method in ("IAI", "II"):
            series = [value for _, value in tiny_result.series(method)]
            assert all(a >= b - 1e-9 for a, b in zip(series, series[1:]))

    def test_values_capped(self, tiny_result):
        for method, by_factor in tiny_result.mean_scaled.items():
            for value in by_factor.values():
                assert 0 < value <= 10.0

    def test_ranking(self, tiny_result):
        ranking = tiny_result.ranking(2.0)
        assert set(ranking) == {"IAI", "II"}
        assert tiny_result.at(ranking[0], 2.0) <= tiny_result.at(ranking[1], 2.0)

    def test_deterministic(self, tiny_queries):
        config = ExperimentConfig(
            methods=("II",), time_factors=(1.0,), units_per_n2=5, seed=4
        )
        a = run_experiment(tiny_queries, config)
        b = run_experiment(tiny_queries, config)
        assert a.mean_scaled == b.mean_scaled

    def test_progress_callback(self, tiny_queries):
        seen = []
        config = ExperimentConfig(
            methods=("II",), time_factors=(0.5,), units_per_n2=5, replicates=1
        )
        run_experiment(tiny_queries, config, progress=lambda d, t: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_reference_method_not_reported(self, tiny_queries):
        config = ExperimentConfig(
            methods=("AUG3",),
            time_factors=(1.0,),
            units_per_n2=5,
            replicates=1,
            reference_methods=("IAI",),
        )
        result = run_experiment(tiny_queries, config)
        assert set(result.mean_scaled) == {"AUG3"}
        # Scaled against IAI's (usually better) solutions: >= 1.
        assert result.at("AUG3", 1.0) >= 1.0 - 1e-9

    def test_disk_model_supported(self, tiny_queries):
        from repro.cost.disk import DiskCostModel

        config = ExperimentConfig(
            methods=("II",),
            time_factors=(0.5,),
            model=DiskCostModel(),
            units_per_n2=5,
            replicates=1,
        )
        result = run_experiment(tiny_queries, config)
        assert result.at("II", 0.5) > 0
