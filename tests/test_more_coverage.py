"""Coverage for remaining corners: parameter pass-through, rendering of
real results, CLI experiment-all, and assorted accessors."""

import pytest

from repro.cost.disk import DiskCostModel
from repro.experiments.report import render_experiment
from repro.experiments.tables import table1
from repro.workloads.benchmarks import DEFAULT_SPEC, generate_benchmark

TINY = dict(n_values=(10,), queries_per_n=2, units_per_n2=4, replicates=1, seed=0)


@pytest.mark.slow
class TestModelPassThrough:
    def test_table1_accepts_disk_model(self):
        result = table1(model=DiskCostModel(), **TINY)
        assert result.config.model.name == "disk"
        assert result.at("AUG3", 9.0) > 0

    def test_render_real_result(self):
        result = table1(**TINY)
        text = render_experiment("Mini table 1", result)
        assert "AUG1" in text and "9N^2" in text


@pytest.mark.slow
class TestCliExperimentAll:
    def test_runs_every_artifact(self, capsys):
        from repro.cli import main

        code = main(
            [
                "experiment",
                "all",
                "--n-values",
                "10",
                "--queries-per-n",
                "1",
                "--units-per-n2",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        for marker in ("table1", "Table 3", "figure4", "figure7"):
            assert marker in out


class TestAssortedAccessors:
    def test_spanning_tree_custom_start(self, cycle):
        edges = cycle.spanning_tree_edges(lambda p: p.selectivity, start=2)
        assert len(edges) == cycle.n_relations - 1

    def test_budget_can_afford_boundary(self):
        from repro.core.budget import Budget

        budget = Budget(limit=10)
        assert budget.can_afford(10)
        budget.charge(10)
        assert not budget.can_afford(1e-9)

    def test_outlier_counts_populated(self):
        from repro.experiments.runner import ExperimentConfig, run_experiment

        queries = generate_benchmark(
            DEFAULT_SPEC, n_values=(10,), queries_per_n=2, seed=0
        )
        config = ExperimentConfig(
            methods=("RANDOM",),
            time_factors=(0.5,),
            units_per_n2=4,
            replicates=1,
            reference_methods=("IAI",),
        )
        result = run_experiment(queries, config)
        assert set(result.outlier_counts) == {"RANDOM"}
        assert result.outlier_counts["RANDOM"][0.5] >= 0

    def test_method_params_frozen(self):
        from repro.core.combinations import MethodParams

        params = MethodParams()
        with pytest.raises(AttributeError):
            params.patience = 5

    def test_join_tree_explain_mentions_cross_product(self, two_components):
        from repro.plans.join_order import JoinOrder
        from repro.plans.join_tree import build_join_tree

        tree = build_join_tree(JoinOrder([0, 1, 2, 3, 4]), two_components)
        assert "cross product" in tree.explain()

    def test_convergence_with_explicit_model(self):
        from repro.experiments.convergence import convergence_curves

        queries = generate_benchmark(
            DEFAULT_SPEC, n_values=(10,), queries_per_n=2, seed=4
        )
        curves = convergence_curves(
            queries,
            methods=("AGI",),
            max_factor=1.0,
            n_points=4,
            units_per_n2=4,
            model=DiskCostModel(),
            seed=4,
        )
        assert curves["AGI"].final() >= 1.0 - 1e-9
