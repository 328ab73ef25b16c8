"""Differential determinism harness for ``repro.parallel``.

The orchestrator's contract: for any seed, ``workers=N`` returns an
``OptimizationResult`` that compares equal — plan, cost, budget spent,
evaluation count, trajectory — to ``workers=1``, including when worker
processes are killed mid-restart.  Every test here is differential: the
parallel run is checked against the serial run of the exact same
configuration, never against golden values.
"""

from __future__ import annotations

import math

import pytest

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.cli import main
from repro.core.budget import Budget, WallClockBudget
from repro.core.combinations import available_method_names, compare_methods
from repro.core.optimizer import optimize
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.cost.static import StaticCostModel
from repro.parallel import DEFAULT_RESTARTS, multi_start_optimize
from repro.robustness.resilience import FailureLog
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query
from tests.faults import StallingClock

MODELS = {"memory": MainMemoryCostModel, "disk": DiskCostModel}

#: Every registered method once ("AUG"/"KBZ" are aliases of AUG3/KBZ3).
ALL_METHODS = [
    name for name in available_method_names() if name not in ("AUG", "KBZ")
]


def _query(n_joins: int = 5, seed: int = 13):
    return generate_query(DEFAULT_SPEC, n_joins=n_joins, seed=seed)


def _two_component_graph() -> JoinGraph:
    relations = [Relation(f"R{i}", 50 * (i + 2)) for i in range(6)]
    predicates = [
        JoinPredicate(0, 1, 10, 12),
        JoinPredicate(1, 2, 8, 9),
        JoinPredicate(3, 4, 5, 6),
        JoinPredicate(4, 5, 7, 11),
    ]
    return JoinGraph(relations, predicates)


class TestBitIdentityAcrossWorkers:
    @pytest.mark.slow
    @pytest.mark.parametrize("model_name", sorted(MODELS))
    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_every_method_under_both_models(self, model_name, method):
        query = _query(n_joins=5, seed=13)
        kwargs = dict(
            method=method,
            time_factor=1.0,
            seed=5,
            restarts=2,
        )
        serial = optimize(
            query, model=MODELS[model_name](), workers=1, **kwargs
        )
        parallel = optimize(
            query, model=MODELS[model_name](), workers=2, **kwargs
        )
        assert serial == parallel

    @pytest.mark.slow
    @pytest.mark.parametrize("graph_seed", range(20))
    def test_twenty_random_graphs(self, graph_seed):
        query = _query(n_joins=4 + graph_seed % 7, seed=100 + graph_seed)
        method = ("II", "IAI", "SA", "KBI")[graph_seed % 4]
        kwargs = dict(
            method=method, time_factor=1.5, seed=graph_seed, restarts=3
        )
        serial = optimize(query, workers=1, **kwargs)
        parallel = optimize(query, workers=4, **kwargs)
        assert serial == parallel

    def test_default_restart_count_is_worker_independent(self):
        # workers=4 with no explicit restart count must match workers=1:
        # the default is a constant, never derived from the worker count.
        query = _query(n_joins=5, seed=2)
        serial = optimize(query, method="II", seed=9, workers=1)
        parallel = optimize(query, method="II", seed=9, workers=4)
        assert serial == parallel
        assert DEFAULT_RESTARTS == 8

    def test_restarts_alone_triggers_orchestration(self):
        query = _query(n_joins=5, seed=2)
        orchestrated = optimize(query, method="II", seed=9, restarts=3)
        legacy = optimize(query, method="II", seed=9)
        parallel = optimize(query, method="II", seed=9, restarts=3, workers=2)
        assert orchestrated == parallel
        # The orchestrated path runs different (derived-seed) restarts
        # than the legacy single trajectory — it must not masquerade.
        assert orchestrated.n_evaluations != legacy.n_evaluations

    def test_full_reference_evaluator(self):
        # A model that overrides plan_cost always runs on the reference
        # Evaluator, never the delta engine.
        query = _query(n_joins=5, seed=6)
        kwargs = dict(
            method="II", seed=1, time_factor=1.0, restarts=2,
            model=StaticCostModel(MainMemoryCostModel()),
        )
        assert optimize(query, workers=1, **kwargs) == optimize(
            query, workers=2, **kwargs
        )

    def test_disconnected_graph(self):
        graph = _two_component_graph()
        kwargs = dict(method="II", seed=3, time_factor=1.5, restarts=3)
        assert optimize(graph, workers=1, **kwargs) == optimize(
            graph, workers=3, **kwargs
        )

    def test_explicit_budget_is_shared_deterministically(self):
        query = _query(n_joins=6, seed=8)
        results = []
        for workers in (1, 3):
            budget = Budget(limit=500.0)
            results.append(
                optimize(
                    query,
                    method="II",
                    seed=2,
                    budget=budget,
                    workers=workers,
                    restarts=4,
                )
            )
            assert budget.spent == results[-1].units_spent
        assert results[0] == results[1]

    def test_resilient_with_workers_rejected(self):
        with pytest.raises(ValueError, match="resilient"):
            optimize(_query(), resilient=True, workers=2)
        with pytest.raises(ValueError, match="resilient"):
            optimize(_query(), resilient=True, restarts=4)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            optimize(_query(), workers=0)
        with pytest.raises(ValueError, match="restarts"):
            optimize(_query(), restarts=0)


class TestWallClockRefused:
    """Seconds cannot be shared out ahead of time across the pool."""

    def _budget(self):
        return WallClockBudget(2.0, clock=StallingClock())

    @pytest.mark.parametrize(
        "fanout", [dict(workers=1), dict(restarts=2), dict(workers=2, restarts=2)]
    )
    def test_optimize_raises(self, fanout):
        with pytest.raises(ValueError, match="wall-clock"):
            optimize(
                _query(n_joins=9, seed=3), method="II", budget=self._budget(),
                **fanout,
            )

    def test_multi_start_optimize_raises(self):
        with pytest.raises(ValueError, match="wall-clock"):
            multi_start_optimize(
                _query(n_joins=9, seed=3), method="II", budget=self._budget(),
                restarts=2,
            )


class TestCrashRecovery:
    def test_crashed_worker_recovers_to_identical_result(self):
        query = _query(n_joins=6, seed=21)
        serial, serial_report = multi_start_optimize(
            query, method="II", seed=3, workers=1, restarts=4
        )
        crashed, crash_report = multi_start_optimize(
            query,
            method="II",
            seed=3,
            workers=3,
            restarts=4,
            crash_indices=(1,),
        )
        assert serial == crashed
        assert not serial_report.failures
        assert crash_report.failures
        assert all(
            failure.action == "re-executed serially in parent"
            for failure in crash_report.failures
        )
        assert serial_report.outcomes == crash_report.outcomes

    def test_multiple_crashes_still_identical(self):
        query = _query(n_joins=5, seed=30)
        clean, _ = multi_start_optimize(
            query, method="IAI", seed=7, workers=1, restarts=4
        )
        crashed, report = multi_start_optimize(
            query,
            method="IAI",
            seed=7,
            workers=2,
            restarts=4,
            crash_indices=(0, 3),
        )
        assert clean == crashed
        assert report.crashed

    def test_crash_hook_is_inert_outside_pool_workers(self):
        # With one worker nothing runs in a pool, so the injected crash
        # must not fire (the hook guards on the pool-worker flag).
        query = _query(n_joins=5, seed=30)
        clean, _ = multi_start_optimize(
            query, method="II", seed=1, workers=1, restarts=3
        )
        marked, report = multi_start_optimize(
            query,
            method="II",
            seed=1,
            workers=1,
            restarts=3,
            crash_indices=(0, 1, 2),
        )
        assert clean == marked
        assert not report.failures


class TestSharedBound:
    """The report's ``best_bound``: the pre-pass floor or a restart's cost."""

    def test_report_tracks_global_best(self):
        query = _query(n_joins=6, seed=17)
        for workers in (1, 3):
            result, report = multi_start_optimize(
                query, method="II", seed=4, workers=workers, restarts=3
            )
            best_restart = min(
                (cost for _, cost, _ in report.outcomes if cost is not None),
                default=math.inf,
            )
            assert report.best_bound == min(report.prepass_cost, best_restart)
            assert result.cost == report.best_bound


class TestDeterministicMerge:
    def test_outcomes_reported_in_index_order(self):
        query = _query(n_joins=5, seed=9)
        _, report = multi_start_optimize(
            query, method="II", seed=6, workers=2, restarts=4
        )
        assert [index for index, _, _ in report.outcomes] == [0, 1, 2, 3]

    def test_winner_is_minimum_cost(self):
        query = _query(n_joins=6, seed=9)
        result, report = multi_start_optimize(
            query, method="SA", seed=6, workers=2, restarts=4
        )
        costs = [cost for _, cost, _ in report.outcomes if cost is not None]
        assert result.cost == min(costs + [report.prepass_cost])

    def test_trajectory_is_monotone_decreasing_envelope(self):
        query = _query(n_joins=6, seed=22)
        result = optimize(query, method="II", seed=5, workers=3, restarts=4)
        units = [u for u, _ in result.trajectory]
        costs = [c for _, c in result.trajectory]
        assert units == sorted(units)
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == len(costs)

    def test_deterministic_method_restarts_agree(self):
        # A deterministic heuristic gives every restart the same cost;
        # the tie must resolve to the lowest index, i.e. the merged
        # result equals the serial merge exactly.
        query = _query(n_joins=5, seed=3)
        serial, serial_report = multi_start_optimize(
            query, method="AUG3", seed=0, workers=1, restarts=3
        )
        parallel, parallel_report = multi_start_optimize(
            query, method="AUG3", seed=0, workers=3, restarts=3
        )
        assert serial == parallel
        restart_costs = {
            cost for _, cost, _ in serial_report.outcomes if cost is not None
        }
        assert len(restart_costs) == 1
        assert serial_report.outcomes == parallel_report.outcomes


class TestComparisonAndExperimentPaths:
    def test_compare_methods_parity(self):
        query = _query(n_joins=6, seed=11)
        kwargs = dict(methods=("II", "IAI", "KBZ3"), seed=2, time_factor=1.5)
        serial = compare_methods(query, **kwargs)
        log = FailureLog()
        parallel = compare_methods(
            query, workers=3, failure_log=log, **kwargs
        )
        assert serial == parallel
        assert not log

    def test_run_experiment_parity(self):
        from repro.experiments.runner import ExperimentConfig, run_experiment

        queries = [
            generate_query(DEFAULT_SPEC, n_joins=5, seed=s, name=f"q{s}")
            for s in (1, 2)
        ]
        config = ExperimentConfig(
            methods=("II", "KBZ3"), time_factors=(1.5,), replicates=2, seed=5
        )
        serial = run_experiment(queries, config)
        parallel = run_experiment(queries, config, workers=4)
        assert serial.mean_scaled == parallel.mean_scaled
        assert serial.per_query_scaled == parallel.per_query_scaled
        assert serial.outlier_counts == parallel.outlier_counts


class TestCLIWorkers:
    def _run(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    def test_optimize_output_identical_across_workers(self, capsys):
        base = [
            "optimize", "--joins", "5", "--seed", "3",
            "--time-factor", "1.5", "--restarts", "3",
        ]
        serial = self._run(capsys, base + ["--workers", "1"])
        parallel = self._run(capsys, base + ["--workers", "2"])
        assert serial == parallel

    def test_compare_output_identical_across_workers(self, capsys):
        base = [
            "compare", "--joins", "5", "--seed", "1",
            "--time-factor", "1.5", "--methods", "II", "KBZ3",
        ]
        serial = self._run(capsys, base + ["--workers", "1"])
        parallel = self._run(capsys, base + ["--workers", "2"])
        assert serial == parallel

    def test_sql_accepts_workers(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            '{"tables": {'
            '"a": {"cardinality": 1000, "columns": {"x": {"distinct": 100}}},'
            '"b": {"cardinality": 2000, "columns": {"x": {"distinct": 200}}}'
            "}}"
        )
        base = [
            "sql", "SELECT * FROM a, b WHERE a.x = b.x",
            "--catalog", str(catalog), "--restarts", "2",
        ]
        serial = self._run(capsys, base + ["--workers", "1"])
        parallel = self._run(capsys, base + ["--workers", "2"])
        assert serial == parallel

    def test_resilient_workers_conflict_is_usage_error(self, capsys):
        code = main(
            ["optimize", "--joins", "5", "--workers", "2", "--resilient"]
        )
        assert code == 2
        assert "resilient" in capsys.readouterr().err

