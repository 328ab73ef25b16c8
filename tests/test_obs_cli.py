"""Tests for the obs reader CLI and the optimizer CLI's --trace/--metrics."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main
from repro.core.optimizer import optimize
from repro.obs import RecordingTracer, write_trace
from repro.obs.__main__ import EXIT_DIFFERS, EXIT_OK, EXIT_USAGE
from repro.obs.__main__ import main as obs_main
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query


@pytest.fixture()
def trace_file(tmp_path):
    query = generate_query(DEFAULT_SPEC, n_joins=6, seed=3)
    path = tmp_path / "run.jsonl"
    optimize(query, method="SA", seed=1, trace=str(path))
    return path


def test_profile_exits_zero(trace_file, capsys) -> None:
    assert obs_main(["profile", str(trace_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "events" in out
    assert "run_end" in out
    assert "final cost" in out


def test_diff_identical(trace_file, tmp_path, capsys) -> None:
    query = generate_query(DEFAULT_SPEC, n_joins=6, seed=3)
    other = tmp_path / "other.jsonl"
    optimize(query, method="SA", seed=1, trace=str(other))
    assert obs_main(["diff", str(trace_file), str(other)]) == EXIT_OK
    assert "identical" in capsys.readouterr().out


def test_diff_divergent(trace_file, tmp_path, capsys) -> None:
    query = generate_query(DEFAULT_SPEC, n_joins=6, seed=3)
    other = tmp_path / "other.jsonl"
    optimize(query, method="SA", seed=2, trace=str(other))
    assert obs_main(["diff", str(trace_file), str(other)]) == EXIT_DIFFERS
    assert capsys.readouterr().out.strip()


def test_missing_file_is_usage_error(tmp_path, capsys) -> None:
    assert obs_main(["profile", str(tmp_path / "no.jsonl")]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_malformed_trace_is_usage_error(tmp_path, capsys) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    assert obs_main(["profile", str(path)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_profile_empty_recording(tmp_path) -> None:
    tracer = RecordingTracer()
    path = tmp_path / "empty.jsonl"
    write_trace(tracer.events, str(path))
    assert obs_main(["profile", str(path)]) == EXIT_OK


def test_optimizer_cli_trace_and_metrics_flags(tmp_path, capsys) -> None:
    trace_path = tmp_path / "cli.jsonl"
    metrics_path = tmp_path / "cli.json"
    code = repro_main(
        [
            "optimize",
            "--joins", "8",
            "--seed", "5",
            "--method", "II",
            "--trace", str(trace_path),
            "--metrics", str(metrics_path),
        ]
    )
    assert code == 0
    assert trace_path.exists()
    assert metrics_path.exists()
    metrics = json.loads(metrics_path.read_text())
    assert list(metrics) == ["counters"]
    assert metrics["counters"].get("evaluations", 0) > 0
    assert obs_main(["profile", str(trace_path)]) == EXIT_OK
    capsys.readouterr()

# ---------------------------------------------------------------------------
# profile --format json, unknown kinds, obs passthrough


def test_profile_json_format_is_byte_stable(trace_file, capsys) -> None:
    assert obs_main(["profile", str(trace_file), "--format", "json"]) == EXIT_OK
    first = capsys.readouterr().out
    assert obs_main(["profile", str(trace_file), "--format", "json"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["events"] > 0
    assert "kinds" in parsed


def test_profile_buckets_unknown_kinds(tmp_path, capsys) -> None:
    from repro.obs import TraceEvent

    path = tmp_path / "future.jsonl"
    write_trace(
        [
            TraceEvent(seq=0, clock=0.0, kind="run_start", data={}),
            TraceEvent(seq=1, clock=1.0, kind="hyperdrive", data={}),
            TraceEvent(seq=2, clock=2.0, kind="run_end", data={"cost": 1.0}),
        ],
        str(path),
    )
    assert obs_main(["profile", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "other" in out
    assert "hyperdrive" in out
    assert obs_main(["profile", str(path), "--format", "json"]) == EXIT_OK
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["unknown_kinds"] == {"hyperdrive": 1}
    assert parsed["kinds"]["other"] == 1


def test_profile_subcommand_text_json_collapsed(trace_file, capsys) -> None:
    assert obs_main(["profile", str(trace_file)]) == EXIT_OK
    text = capsys.readouterr().out
    assert "SA" in text
    assert obs_main(["profile", str(trace_file), "--format", "json"]) == EXIT_OK
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["tree"]["children"]
    code = obs_main(["profile", str(trace_file), "--format", "collapsed"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        assert line.rsplit(" ", 1)[1].isdigit()


def test_profile_missing_and_empty_files(tmp_path, capsys) -> None:
    assert obs_main(["profile", str(tmp_path / "no.jsonl")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    empty = tmp_path / "empty.jsonl"
    write_trace([], str(empty))
    assert obs_main(["profile", str(empty)]) == EXIT_OK


def test_repro_obs_passthrough(trace_file, capsys) -> None:
    assert repro_main(["obs", "profile", str(trace_file)]) == 0
    assert "events" in capsys.readouterr().out
    assert repro_main(["obs", "profile", str(trace_file / "no")]) == 2


def test_summarize_subcommand_is_gone(trace_file, capsys) -> None:
    with pytest.raises(SystemExit) as excinfo:
        obs_main(["summarize", str(trace_file)])
    assert excinfo.value.code == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ("0", "-1"))
def test_diff_cap_only_applies_to_differences(
    trace_file, tmp_path, cap, capsys
) -> None:
    args = ["diff", "--max-report", cap, str(trace_file), str(trace_file)]
    assert obs_main(args) == EXIT_OK
    assert "identical" in capsys.readouterr().out
    query = generate_query(DEFAULT_SPEC, n_joins=6, seed=3)
    other = tmp_path / "other.jsonl"
    optimize(query, method="SA", seed=2, trace=str(other))
    args = ["diff", "--max-report", cap, str(trace_file), str(other)]
    assert obs_main(args) == EXIT_DIFFERS
    assert capsys.readouterr().out.splitlines() == [
        "... (further differences suppressed)"
    ]


# ---------------------------------------------------------------------------
# The profile header on pinned runs


def _profile_report(argv, tmp_path, capsys) -> dict:
    trace_path = tmp_path / "t.jsonl"
    metrics_path = tmp_path / "m.json"
    argv = argv + ["--trace", str(trace_path), "--metrics", str(metrics_path)]
    assert repro_main(argv) == 0
    capsys.readouterr()
    assert obs_main(["profile", str(trace_path), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert obs_main(["profile", str(trace_path)]) == EXIT_OK
    report["text"] = capsys.readouterr().out
    report["metrics"] = json.loads(metrics_path.read_text())
    return report


def test_profile_header_of_a_pinned_sa_run(tmp_path, capsys) -> None:
    report = _profile_report(
        ["optimize", "--joins", "30", "--seed", "7", "--method", "SA"],
        tmp_path,
        capsys,
    )
    assert report["version"] == 2
    assert report["events"] == 2737
    assert report["kinds"] == {
        "best": 12,
        "chain": 43,
        "move": 2679,
        "restart": 1,
        "run_end": 1,
        "run_start": 1,
    }
    assert report["chains"] == 43
    assert report["mean_acceptance"] == 0.959114778694674
    assert report["best_updates"] == 12
    assert report["run"] == {
        "budget": 81000.0,
        "method": "SA",
        "n_relations": 31,
        "seed": 7,
    }
    assert "run: budget=81000.0, method=SA, n_relations=31, seed=7" in (
        report["text"]
    )
    assert "sa chains: 43  mean acceptance: 0.959" in report["text"]
    assert report["metrics"] == {
        "counters": {
            "best_updates": 12.0,
            "evaluations": 2700.0,
            "joins_charged": 81000.0,
            "joins_walked": 47501.0,
            "moves_accepted": 2570.0,
            "moves_rejected": 109.0,
            "restarts": 1.0,
            "sa_chains": 43.0,
        }
    }


def test_profile_run_is_the_first_run_start_of_a_merged_trace(
    tmp_path, capsys
) -> None:
    # Each restart emits its own run_start with its share of the budget
    # and a derived seed; the header describes the run that was asked for.
    report = _profile_report(
        [
            "optimize", "--joins", "30", "--seed", "5", "--method", "SA",
            "--model", "disk", "--workers", "2", "--restarts", "8",
        ],
        tmp_path,
        capsys,
    )
    assert report["kinds"]["run_start"] == 9
    assert report["run"]["seed"] == 5
    assert report["run"]["budget"] == 81000.0
    assert "run: budget=81000.0, method=SA, n_relations=31, seed=5" in (
        report["text"]
    )
