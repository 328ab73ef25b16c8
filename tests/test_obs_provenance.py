"""Tests for incumbent-lineage reconstruction (repro.obs.provenance)."""

from __future__ import annotations

import pytest

from repro.core.optimizer import optimize
from repro.obs import (
    RecordingTracer,
    TraceEvent,
    build_provenance,
    provenance_json,
    render_provenance,
    write_trace,
)
from repro.obs.provenance import (
    SOURCE_PREPASS,
    events_for_last_run,
)
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query


@pytest.fixture(scope="module")
def query():
    return generate_query(DEFAULT_SPEC, n_joins=8, seed=7)


def test_chain_is_strictly_improving_and_ends_at_result(query) -> None:
    tracer = RecordingTracer()
    result = optimize(query, method="IAI", seed=11, trace=tracer)
    provenance = build_provenance(tracer.events)
    costs = [step.cost for step in provenance.steps]
    assert costs, "no incumbent updates reconstructed"
    assert costs == sorted(costs, reverse=True)
    assert len(set(costs)) == len(costs), "chain repeats a cost"
    assert costs[-1] == result.cost
    assert provenance.final_cost == result.cost
    assert provenance.final_units == result.units_spent
    # Improvements link consecutive steps exactly.
    for earlier, later in zip(provenance.steps, provenance.steps[1:]):
        assert later.improvement == pytest.approx(earlier.cost - later.cost)
    assert provenance.steps[0].improvement is None


def test_attached_to_result_only_when_tracing(query) -> None:
    """Provenance is read from the trace; the result carries none, so a
    traced result equals its untraced twin."""
    untraced = optimize(query, method="SA", seed=4)
    tracer = RecordingTracer()
    traced = optimize(query, method="SA", seed=4, trace=tracer)
    assert traced == untraced
    provenance = build_provenance(tracer.events)
    assert provenance.steps and provenance.final_cost == traced.cost


def test_workers_invariant_and_byte_stable(query) -> None:
    reports = {}
    for workers in (1, 3):
        tracer = RecordingTracer()
        result = optimize(
            query,
            method="II",
            seed=5,
            workers=workers,
            restarts=3,
            trace=tracer,
        )
        provenance = build_provenance(tracer.events)
        assert provenance.final_cost == result.cost
        reports[workers] = provenance_json(provenance)
    assert reports[1] == reports[3]


def test_parallel_steps_attribute_worker_and_restart(query) -> None:
    tracer = RecordingTracer()
    optimize(query, method="II", seed=5, workers=2, restarts=3, trace=tracer)
    provenance = build_provenance(tracer.events)
    attributed = [s for s in provenance.steps if s.worker is not None]
    assert attributed, "no incumbent step attributed to a restart"
    for step in attributed:
        # `worker` is the orchestrator's merge attribution (one of the
        # 3 fanned-out restarts); `restart` is II's own inner random
        # restart counter within that stream.
        assert step.worker in {0, 1, 2}
        assert step.restart is not None and step.restart >= 0
    text = render_provenance(provenance)
    assert "[restart 0]" in text


def test_prepass_floor_can_seed_the_chain() -> None:
    events = [
        TraceEvent(seq=0, clock=0.0, kind="run_start", data={"method": "II"}),
        TraceEvent(
            seq=1,
            clock=1.0,
            kind="bound",
            data={"kind": "prepass_floor", "value": 50.0},
        ),
        TraceEvent(seq=2, clock=2.0, kind="best", data={"cost": 80.0}),
        TraceEvent(seq=3, clock=3.0, kind="best", data={"cost": 40.0}),
        TraceEvent(seq=4, clock=4.0, kind="run_end", data={"cost": 40.0}),
    ]
    provenance = build_provenance(events)
    assert [step.cost for step in provenance.steps] == [50.0, 40.0]
    assert provenance.steps[0].source == SOURCE_PREPASS


def test_last_run_only_slices_multi_run_traces(query) -> None:
    tracer = RecordingTracer()
    optimize(query, method="II", seed=1, trace=tracer)
    first_cost = build_provenance(tracer.events).final_cost
    second = optimize(query, method="SA", seed=2, trace=tracer)
    provenance = build_provenance(tracer.events)
    assert provenance.final_cost == second.cost
    for step in provenance.steps:
        assert step.method == "SA"
    # The helper finds the balanced span even with nested sub-runs.
    span = events_for_last_run(tracer.events)
    assert span[0].kind == "run_start"
    assert span[0].data.get("method") == "SA"
    assert first_cost is not None


def test_explain_trace_cli(query, tmp_path, capsys) -> None:
    from repro.cli import main as repro_main

    tracer = RecordingTracer()
    optimize(query, method="IAI", seed=11, trace=tracer)
    path = str(tmp_path / "run.jsonl")
    write_trace(tracer.events, path)
    assert repro_main(["explain-trace", path]) == 0
    out = capsys.readouterr().out
    assert "plan provenance" in out
    assert "final: cost" in out
    assert repro_main(["explain-trace", path, "--format", "json"]) == 0
    out = capsys.readouterr().out
    import json

    parsed = json.loads(out)
    assert parsed["steps"]


def test_explain_trace_cli_missing_file(tmp_path, capsys) -> None:
    from repro.cli import main as repro_main

    assert repro_main(["explain-trace", str(tmp_path / "no.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_render_mentions_chain_and_final(query) -> None:
    tracer = RecordingTracer()
    optimize(query, method="II", seed=8, trace=tracer)
    text = render_provenance(build_provenance(tracer.events))
    assert "incumbent update" in text
    assert "final: cost" in text
