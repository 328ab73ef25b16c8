"""Determinism and round-trip tests for the search profiler.

The profiler is a pure fold over a trace, so its guarantees inherit the
trace layer's: the profile of a seeded run is byte-identical across
repeated runs, across worker counts, and across live-tracer vs
file-round-trip inputs — for every method and both cost models.  The
collapsed-stack output must round-trip through the JSON report, and
profiling a traced run must leave the result bit-identical to an
untraced one (the PR 5 differential contract, extended).
"""

from __future__ import annotations

import pytest

from repro.core.combinations import PAPER_METHODS
from repro.core.optimizer import optimize
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.obs import (
    RecordingTracer,
    TraceEvent,
    build_provenance,
    collapsed_stacks,
    diff_traces,
    profile_events,
    profile_json,
    profile_report,
    read_trace,
    render_profile,
    write_trace,
)
from repro.obs.profile import OTHER_LEAF
from repro.obs.wallclock import (
    WallClockTracer,
    read_wall_sidecar,
    sidecar_path,
    write_wall_sidecar,
)
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query

MODELS = {
    "memory": MainMemoryCostModel,
    "disk": DiskCostModel,
}


@pytest.fixture(scope="module")
def query():
    return generate_query(DEFAULT_SPEC, n_joins=8, seed=7)


def _traced_profile(query, method, model, seed, **kwargs) -> tuple:
    tracer = RecordingTracer()
    result = optimize(
        query, method=method, model=model, seed=seed, trace=tracer, **kwargs
    )
    return profile_json(profile_events(tracer.events)), result


# ---------------------------------------------------------------------------
# Byte-stability: same seed -> same profile, for every method x model


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("method", PAPER_METHODS)
def test_profile_is_byte_stable_across_runs(query, method, model_name) -> None:
    model = MODELS[model_name]()
    first, _ = _traced_profile(query, method, model, seed=11)
    second, _ = _traced_profile(query, method, model, seed=11)
    assert first == second
    assert '"tree"' in first


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("method", PAPER_METHODS)
def test_profile_is_workers_invariant(query, method, model_name) -> None:
    model = MODELS[model_name]()
    profiles = {}
    for workers in (1, 2):
        profiles[workers], _ = _traced_profile(
            query,
            method,
            model,
            seed=5,
            workers=workers,
            restarts=2,
            time_factor=1.0,
        )
    assert profiles[1] == profiles[2]


def test_profile_of_file_round_trip_matches_live(query, tmp_path) -> None:
    tracer = RecordingTracer()
    optimize(query, method="SA", seed=3, trace=tracer)
    live = profile_json(profile_events(tracer.events))
    path = tmp_path / "run.jsonl"
    write_trace(tracer.events, str(path))
    from_file = profile_json(profile_events(read_trace(str(path))))
    assert live == from_file


# ---------------------------------------------------------------------------
# Differential: profiling perturbs nothing


def test_traced_and_profiled_run_equals_untraced(query) -> None:
    untraced = optimize(query, method="IAI", seed=9)
    tracer = RecordingTracer()
    traced = optimize(query, method="IAI", seed=9, trace=tracer)
    profile = profile_events(tracer.events)
    assert profile.n_events == len(tracer.events)
    assert traced == untraced
    assert build_provenance(tracer.events).final_cost == traced.cost


# ---------------------------------------------------------------------------
# Report content and collapsed-stack round-trip


def test_report_attribution_tree_is_non_empty(query) -> None:
    tracer = RecordingTracer()
    result = optimize(query, method="SA", seed=2, trace=tracer)
    report = profile_report(profile_events(tracer.events))
    assert report["methods"] == ["SA"]
    assert report["final_cost"] == result.cost
    assert report["evaluations"] == result.n_evaluations
    tree = report["tree"]
    assert tree["children"], "attribution tree has no frames"
    method_node = tree["children"][0]
    assert method_node["name"] == "SA"
    leaves = {child["name"] for child in method_node["children"]}
    assert any(name.startswith("move:") for name in leaves)
    # Accepted moves carry improvement deltas now; the tree sums them.
    total_improvement = sum(
        child["improvement"] for child in method_node["children"]
    )
    assert total_improvement > 0.0
    # Self-units sum to the total clock span attributed.
    assert tree["total_units"] == pytest.approx(
        sum(report["worker_units"].values())
    )


def test_collapsed_stacks_round_trip_through_json(query) -> None:
    import json

    tracer = RecordingTracer()
    optimize(query, method="2PO", seed=4, trace=tracer)
    profile = profile_events(tracer.events)
    direct = collapsed_stacks(profile_report(profile))
    parsed = collapsed_stacks(json.loads(profile_json(profile)))
    assert direct == parsed
    assert direct, "collapsed output is empty"
    for line in direct:
        path, _, value = line.rpartition(" ")
        assert path
        assert int(value) > 0


def test_render_profile_mentions_frames(query) -> None:
    tracer = RecordingTracer()
    optimize(query, method="SA", seed=2, trace=tracer)
    text = render_profile(profile_events(tracer.events))
    assert "SA" in text
    assert "move:" in text
    assert "final cost" in text


# ---------------------------------------------------------------------------
# Forward compatibility: unknown kinds bucket under `other`


def test_unknown_event_kinds_bucket_as_other() -> None:
    events = [
        TraceEvent(seq=0, clock=0.0, kind="run_start", data={"method": "II"}),
        TraceEvent(seq=1, clock=5.0, kind="quantum_leap", data={"x": 1}),
        TraceEvent(seq=2, clock=9.0, kind="run_end", data={"cost": 1.0}),
    ]
    profile = profile_events(events)
    assert profile.unknown_kinds == {"quantum_leap": 1}
    report = profile_report(profile)
    method_node = report["tree"]["children"][0]
    leaves = {child["name"]: child for child in method_node["children"]}
    assert OTHER_LEAF in leaves
    assert leaves[OTHER_LEAF]["units"] == 5.0


# ---------------------------------------------------------------------------
# Wall-clock sidecar: opt-in, never perturbs the trace


def test_wall_tracer_records_identical_events(query) -> None:
    plain = RecordingTracer()
    optimize(query, method="II", seed=6, trace=plain)
    walled = WallClockTracer()
    optimize(query, method="II", seed=6, trace=walled)
    assert diff_traces(plain.events, walled.events) == []
    assert len(walled.wall) == len(walled.events)


def test_wall_sidecar_round_trip_and_column(query, tmp_path) -> None:
    tracer = WallClockTracer()
    optimize(query, method="II", seed=6, trace=tracer)
    trace_path = str(tmp_path / "run.jsonl")
    write_trace(tracer.events, trace_path)
    write_wall_sidecar(tracer.wall, sidecar_path(trace_path))
    wall = read_wall_sidecar(sidecar_path(trace_path))
    assert wall == tracer.wall
    with_wall = profile_events(read_trace(trace_path), wall=wall)
    assert with_wall.has_wall
    # The JSON report without a sidecar is identical to a plain run's:
    # wall data never leaks into the deterministic surface.
    without_wall = profile_events(read_trace(trace_path))
    plain = RecordingTracer()
    optimize(query, method="II", seed=6, trace=plain)
    assert profile_json(without_wall) == profile_json(profile_events(plain.events))
