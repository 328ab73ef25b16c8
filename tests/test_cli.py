"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, main


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
        assert main(["exact", "--joins", "8", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "optimal order" in out
        assert "subsets explored" in out

    def test_refuses_large_n(self, capsys):
        assert main(["exact", "--joins", "20", "--max-relations", "16"]) == 2
        assert "subsets" in capsys.readouterr().err

    def test_bnb_engine_reports_proof(self, capsys):
        code = main(
            ["exact", "--joins", "8", "--seed", "2", "--engine", "bnb"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal cost" in out
        assert "proven" in out
        assert "nodes expanded" in out

    def test_bnb_cost_lower_bounds_dp_recost(self, capsys):
        """The B&B works in the propagating world the DP only re-prices."""
        import re

        main(["exact", "--joins", "8", "--seed", "2", "--engine", "bnb"])
        bnb_out = capsys.readouterr().out
        main(["exact", "--joins", "8", "--seed", "2"])
        dp_out = capsys.readouterr().out
        bnb_cost = float(
            re.search(r"optimal cost\s*:\s*([\d,.]+)", bnb_out)
            .group(1)
            .replace(",", "")
        )
        dp_recost = float(
            re.search(r"propagated cost\s*:\s*([\d,.]+)", dp_out)
            .group(1)
            .replace(",", "")
        )
        assert bnb_cost <= dp_recost + 1e-9


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

    def test_gap_adds_columns_and_anchor(self, capsys):
        assert main([*self.BASE, "--gap"]) == 0
        out = capsys.readouterr().out
        assert "gap" in out
        assert "exact anchor" in out

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
        assert "fallback" in captured.err

    def test_non_resilient_tiny_budget_still_raises(self):
        from repro.core.budget import BudgetExhausted

        with pytest.raises(BudgetExhausted):
            main(["optimize", "--joins", "8", "--time-factor", "0.0001"])

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

    def test_max_retries_flag_is_accepted(self, capsys):
        code = main(
            [
                "optimize",
                "--joins",
                "8",
                "--time-factor",
                "1",
                "--resilient",
                "--max-retries",
                "0",
            ]
        )
        assert code == 0

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
