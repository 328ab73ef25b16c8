"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import _build_parser, main

from .conftest import documented_exit_codes

FIXTURES = Path(__file__).parent / "fixtures" / "cli"

#: Parallel predicates the SQL frontend folds into one edge whose distinct
#: counts exceed the tables' rows (a graph built with ``validate=False``).
FOLD_QUERY = "SELECT * FROM a, b, c WHERE a.x = b.x AND a.x = b.y AND b.y = c.y"

#: Two 1e300-row tables: every order's first join overflows.
OVERFLOW_CATALOG = (
    '{"tables": {'
    '"a": {"cardinality": 1e300, "columns": {"k": {"distinct": 1e6}}}, '
    '"b": {"cardinality": 1e300, "columns": {"k": {"distinct": 1e6}}}}}'
)


class TestMethodsCommand:
    def test_lists_methods(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "IAI" in out and "SA" in out and "AUG3" in out


class TestBenchmarksCommand:
    def test_lists_ten_specs(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 10
        assert "star" in out and "chain" in out


class TestOptimizeCommand:
    def test_runs_and_reports(self, capsys):
        code = main(
            ["optimize", "--joins", "10", "--time-factor", "1", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan cost" in out
        assert "IAI" in out

    def test_explain_prints_tree(self, capsys):
        main(
            [
                "optimize",
                "--joins",
                "8",
                "--time-factor",
                "1",
                "--explain",
            ]
        )
        out = capsys.readouterr().out
        assert "hash join" in out

    def test_disk_model(self, capsys):
        assert (
            main(
                [
                    "optimize",
                    "--joins",
                    "8",
                    "--time-factor",
                    "1",
                    "--model",
                    "disk",
                ]
            )
            == 0
        )

    def test_unknown_method_exits_with_usage_code(self, capsys):
        assert main(["optimize", "--joins", "8", "--method", "NOPE"]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestCompareCommand:
    def test_league_table(self, capsys):
        code = main(
            [
                "compare",
                "--joins",
                "8",
                "--time-factor",
                "1",
                "--methods",
                "II",
                "AGI",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "II" in out and "AGI" in out and "scaled" in out

    def test_validates_method_names_before_running(self, capsys):
        assert main(["compare", "--joins", "8", "--methods", "II", "BOGUS"]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1_tiny(self, capsys):
        code = main(
            [
                "experiment",
                "table1",
                "--n-values",
                "10",
                "--queries-per-n",
                "1",
                "--units-per-n2",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "AUG3" in out

    def test_table3_tiny(self, capsys):
        code = main(
            [
                "experiment",
                "table3",
                "--n-values",
                "10",
                "--queries-per-n",
                "1",
                "--units-per-n2",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Bench" in out and "IAI" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "table9"])


class TestExactCommand:
    def test_reports_optimum(self, capsys):
        for model in ("memory", "disk"):
            argv = ["exact", "--joins", "8", "--seed", "2", "--model", model]
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert "optimal cost" in out, model
            assert "proven           : yes" in out, model
            assert "nodes expanded" in out, model

    def test_refuses_large_n(self, capsys):
        assert main(["exact", "--joins", "20", "--max-relations", "16"]) == 2
        assert (
            "exact search over 21 relations exceeds max_relations=16"
            in capsys.readouterr().err
        )

    def test_bnb_engine_reports_proof(self, capsys):
        """The printed optimum is the branch-and-bound's under --model."""
        from repro import DiskCostModel, exact_optimum, generate_query
        from repro.workloads.benchmarks import benchmark_spec

        argv = ["exact", "--joins", "8", "--seed", "2", "--model", "disk"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        query = generate_query(benchmark_spec(0), 8, 2)
        result = exact_optimum(query.graph, DiskCostModel(), seed=2)
        assert f"optimal order    : {result.order}\n" in out
        assert f"optimal cost     : {result.cost:,.2f}\n" in out
        assert f"nodes expanded   : {result.nodes_expanded:,}\n" in out


class TestGapCommand:
    TINY = [
        "gap",
        "--joins",
        "7",
        "--seed",
        "4",
        "--time-factor",
        "1",
        "--methods",
        "II",
        "AGI",
    ]

    def test_prints_gap_matrix(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "optimality gaps" in out
        assert "gap" in out
        assert "exact cost" in out
        assert "II" in out and "AGI" in out

    def test_gaps_at_least_one(self, capsys):
        import re

        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        gaps = [
            float(match)
            for line in out.splitlines()
            if re.match(r"\s*(II|AGI)\b", line)
            for match in re.findall(r"\d+\.\d+", line)[:1]
        ]
        assert gaps
        assert all(gap >= 1.0 for gap in gaps)

    def test_json_byte_identical_across_workers(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        fanned = tmp_path / "fanned.json"
        assert main([*self.TINY, "--json", str(serial)]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main([*self.TINY, "--workers", "3", "--json", str(fanned)]) == 0
        )
        fanned_out = capsys.readouterr().out
        assert serial.read_bytes() == fanned.read_bytes()
        assert serial_out == fanned_out

    def test_rejects_unknown_method(self, capsys):
        assert main(["gap", "--joins", "6", "--methods", "NOPE"]) == 2
        assert "unknown method" in capsys.readouterr().err


class TestCompareGapFlag:
    BASE = [
        "compare",
        "--joins",
        "7",
        "--seed",
        "4",
        "--time-factor",
        "1",
        "--methods",
        "II",
        "AGI",
    ]

    def test_plain_output_unchanged_without_gap(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "gap" not in out
        assert "exact anchor" not in out


class TestLandscapeCommand:
    def test_reports_distribution(self, capsys):
        assert main(["landscape", "--joins", "10", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "spread" in out
        assert "within 2x" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "command", ["optimize", "compare", "exact", "gap", "landscape"]
    )
    def test_shared_flag_defaults(self, command):
        # The shared flags' actions are one object in every subcommand, so
        # a subcommand's set_defaults would move every other's default.
        args = _build_parser().parse_args([command])
        assert (args.joins, args.time_factor) == (10, 3.0)


class TestExitCodes:
    """The documented exit-code contract: 0 ok, 2 usage, 3 degraded, 4 no plan."""

    def test_clean_resilient_run_exits_zero(self, capsys):
        code = main(
            [
                "optimize",
                "--joins",
                "8",
                "--time-factor",
                "1",
                "--resilient",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "degraded" not in captured.out
        assert captured.err == ""

    def test_degraded_run_exits_three_with_failure_log(self, capsys):
        # A budget too small for even one evaluation forces the chain all
        # the way down to the deterministic spanning order.
        code = main(
            [
                "optimize",
                "--joins",
                "8",
                "--time-factor",
                "0.0001",
                "--resilient",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "degraded" in captured.out
        assert "SPANNING" in captured.out
        assert "failure(s) during optimization" in captured.err
        assert "[attempt]" in captured.err

    def test_non_resilient_tiny_budget_still_raises(self, capsys):
        # The library still raises BudgetExhausted; the CLI reports it as
        # exit 4 with one error line instead of a traceback.
        from repro.core.budget import BudgetExhausted
        from repro.core.optimizer import optimize
        from repro.workloads.benchmarks import DEFAULT_SPEC
        from repro.workloads.generator import generate_query

        with pytest.raises(BudgetExhausted):
            optimize(generate_query(DEFAULT_SPEC, 8, 0), time_factor=0.0001)
        code = main(["optimize", "--joins", "8", "--time-factor", "0.0001"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        (
            (["optimize", "--joins", "5", "--time-factor", "1e-9"],
             "budget expired before any plan could be evaluated"),
            # The orchestrator's pre-pass charge names the limit: 1e-9 *
            # 5^2 * 30 units, which must not round to zero.
            (["optimize", "--joins", "5", "--time-factor", "1e-9",
              "--workers", "2"],
             "budget of 7.5e-07 units exhausted"),
            (["compare", "--joins", "5", "--time-factor", "1e-9",
              "--methods", "II"],
             "budget expired before any plan could be evaluated"),
        ),
        ids=("optimize", "workers", "compare"),
    )
    def test_budget_for_no_evaluation_exits_four(self, argv, message, capsys):
        assert main(argv) == 4
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "method", (["--method", "IAI"], ["--method", "EXACT"]), ids=("IAI", "EXACT")
    )
    def test_overflowing_catalog_exits_four(self, tmp_path, capsys, method):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(OVERFLOW_CATALOG)
        code = main(
            ["sql", "SELECT * FROM a, b WHERE a.k = b.k", "--catalog",
             str(catalog)] + method
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_missing_catalog_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["sql", "SELECT * FROM a", "--catalog", str(missing)])
        assert code == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"

    def test_exit_codes_match_docs(self, tmp_path, capsys):
        """Drive main() into each row of the documented table."""
        table = documented_exit_codes("robustness.md")
        assert set(table) == {0, 2, 3, 4}
        assert "no plan" in table[4]
        assert main(["optimize", "--joins", "5", "--time-factor", "1"]) == 0
        missing = str(tmp_path / "missing.json")
        assert main(["sql", "SELECT * FROM a", "--catalog", missing]) == 2
        assert main(
            ["optimize", "--joins", "8", "--time-factor", "0.0001",
             "--resilient"]
        ) == 3
        assert main(["optimize", "--joins", "5", "--time-factor", "1e-9"]) == 4
        capsys.readouterr()

    def test_no_valid_plan_exits_four(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.robustness.resilience import FailureLog, NoValidPlanError

        def explode(*args, **kwargs):
            raise NoValidPlanError("nothing verifies", FailureLog())

        monkeypatch.setattr(cli, "optimize", explode)
        code = main(
            ["optimize", "--joins", "8", "--time-factor", "1", "--resilient"]
        )
        assert code == 4
        assert "nothing verifies" in capsys.readouterr().err

    def test_sql_usage_error_exits_two(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text('{"tables": {"t": {"cardinality": 100}}}')
        code = main(
            ["sql", "SELECT FROM WHERE", "--catalog", str(catalog)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_sql_invalid_stats_exit_two(self, tmp_path, capsys):
        # distinct > cardinality is rejected at catalog load time
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            '{"tables": {"t": {"cardinality": 10,'
            ' "columns": {"c": {"distinct": 100}}}}}'
        )
        code = main(["sql", "SELECT * FROM t", "--catalog", str(catalog)])
        assert code == 2
        assert "distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ("optimize", "compare", "gap"))
    def test_infinite_time_factor_exits_two(self, command, capsys):
        # An infinite budget would never stop II/IAI.
        code = main([command, "--joins", "5", "--time-factor", "inf"])
        assert code == 2
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ([], ["--workers", "2"]), ids=("serial", "w2"))
    def test_sql_single_relation_exits_zero(self, tmp_path, capsys, workers):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            '{"tables": {"orders": {"cardinality": 1000,'
            ' "columns": {"status": {"distinct": 5}}}}}'
        )
        code = main(
            [
                "sql",
                "SELECT * FROM orders o WHERE o.status = 'x'",
                "--catalog",
                str(catalog),
                "--explain",
            ]
            + workers
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan cost : 0" in out
        assert "join order: (0)" in out

    def test_sql_resilient_flag(self, tmp_path, capsys):
        catalog = tmp_path / "catalog.json"
        catalog.write_text(
            '{"tables": {'
            '"a": {"cardinality": 1000, "columns": {"x": {"distinct": 100}}},'
            '"b": {"cardinality": 2000, "columns": {"x": {"distinct": 200}}}'
            "}}"
        )
        code = main(
            [
                "sql",
                "SELECT * FROM a, b WHERE a.x = b.x",
                "--catalog",
                str(catalog),
                "--resilient",
            ]
        )
        assert code == 0
        assert "plan cost" in capsys.readouterr().out

    def test_sql_folded_predicates_resilient_matches_plain(self, capsys):
        # The folded edge's distinct counts exceed its tables' rows by
        # design; --resilient must plan the query as the plain run does.
        argv = ["sql", FOLD_QUERY, "--catalog", str(FIXTURES / "catalog.json")]
        assert main(argv) == 0
        plain = capsys.readouterr()
        assert main(argv + ["--resilient"]) == 0
        resilient = capsys.readouterr()
        assert resilient.out == plain.out
        assert resilient.err == plain.err == ""
