"""Differential tests for the repro.obs trace layer.

The central contract: tracing is *observation only*.  Enabling a trace
must change neither the returned plan nor any RNG draw — a traced run is
bit-identical to an untraced one — and the trace itself must be a pure
function of the seed (two same-seed runs serialize to identical bytes).
"""

from __future__ import annotations

import filecmp
import json

import pytest

from repro.core.combinations import PAPER_METHODS
from repro.core.optimizer import OptimizationResult, optimize
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.obs import (
    NULL_TRACER,
    RecordingTracer,
    TraceEvent,
    diff_traces,
    iter_trace,
    profile_events,
    read_trace,
    write_trace,
)
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query

from .conftest import two_component_graph
from .test_core_disconnected import _four_parts

MODELS = {
    "memory": MainMemoryCostModel,
    "disk": DiskCostModel,
}


@pytest.fixture(scope="module")
def query():
    return generate_query(DEFAULT_SPEC, n_joins=8, seed=7)


def result_fingerprint(result: OptimizationResult) -> tuple:
    """Every result field whose value reflects the RNG stream."""
    return (
        result.method,
        result.order.positions,
        result.cost,
        result.units_spent,
        result.n_evaluations,
        result.trajectory,
        result.degraded,
    )


# ---------------------------------------------------------------------------
# Traced == untraced, for every method and both cost models


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("method", PAPER_METHODS)
def test_trace_changes_nothing(query, method, model_name) -> None:
    model = MODELS[model_name]()
    untraced = optimize(query, method=method, model=model, seed=11)
    tracer = RecordingTracer()
    traced = optimize(query, method=method, model=model, seed=11, trace=tracer)
    assert result_fingerprint(traced) == result_fingerprint(untraced)
    assert tracer.events, "tracer recorded no events"
    assert tracer.events[0].kind == "run_start"
    assert tracer.events[-1].kind == "run_end"


@pytest.mark.parametrize("method", ("II", "SA", "IAI"))
def test_trace_changes_nothing_resilient(query, method) -> None:
    untraced = optimize(query, method=method, seed=3, resilient=True)
    tracer = RecordingTracer()
    traced = optimize(
        query, method=method, seed=3, resilient=True, trace=tracer
    )
    assert result_fingerprint(traced) == result_fingerprint(untraced)


GRAPHS = {
    "connected": lambda: generate_query(DEFAULT_SPEC, 8, 3).graph,
    "two-chains": two_component_graph,
    "four-parts": _four_parts,
}


@pytest.mark.parametrize("model_name", sorted(MODELS))
@pytest.mark.parametrize("method", ("II", "SA", "EXACT"))
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
def test_clean_resilient_trace_is_the_plain_trace(
    graph_name, method, model_name
) -> None:
    # One driver: a resilient run where nothing fails records the plain
    # run's events, a disconnected graph's components as nested runs.
    graph = GRAPHS[graph_name]()
    tracers = {}
    for resilient in (False, True):
        tracers[resilient] = RecordingTracer()
        optimize(
            graph, method=method, model=MODELS[model_name](), seed=3,
            time_factor=2.0, resilient=resilient, trace=tracers[resilient],
        )
    plain, resilient = tracers[False], tracers[True]
    assert diff_traces(plain.events, resilient.events) == []
    assert plain.metrics.snapshot() == resilient.metrics.snapshot()


# ---------------------------------------------------------------------------
# Parallel: workers=4 trace identical to workers=1


@pytest.mark.parametrize("method", ("II", "SA"))
def test_worker_count_does_not_change_trace(query, method) -> None:
    traces = {}
    results = {}
    for workers in (1, 4):
        tracer = RecordingTracer()
        results[workers] = optimize(
            query,
            method=method,
            seed=5,
            workers=workers,
            restarts=4,
            trace=tracer,
        )
        traces[workers] = tracer.events
    assert result_fingerprint(results[1]) == result_fingerprint(results[4])
    assert diff_traces(traces[1], traces[4]) == []


def test_worker_count_does_not_change_result(query) -> None:
    for workers in (1, 4):
        untraced = optimize(
            query, method="II", seed=9, workers=workers, restarts=4
        )
        tracer = RecordingTracer()
        traced = optimize(
            query,
            method="II",
            seed=9,
            workers=workers,
            restarts=4,
            trace=tracer,
        )
        assert result_fingerprint(traced) == result_fingerprint(untraced)


@pytest.mark.parametrize("method", ("II", "SA", "IAI"))
def test_worker_count_does_not_change_counters(query, method) -> None:
    # Pool workers ship their counters back as snapshots; the merge adds
    # them in restart-index order, so the totals cannot see the pool.
    snapshots = {}
    for workers in (1, 2):
        tracer = RecordingTracer()
        optimize(
            query,
            method=method,
            seed=5,
            workers=workers,
            restarts=4,
            trace=tracer,
        )
        snapshots[workers] = tracer.metrics.snapshot()
    assert snapshots[1] == snapshots[2]
    assert list(snapshots[1]) == ["counters"]
    assert snapshots[1]["counters"]["evaluations"] > 0


@pytest.mark.parametrize("workers", (1, 2))
def test_counters_count_the_prepass_plan(query, workers) -> None:
    # The orchestrator prices the spanning order once before fanning out
    # and counts it in n_evaluations; the counters must see it too.
    tracer = RecordingTracer()
    result = optimize(
        query, method="II", seed=5, workers=workers, restarts=4, trace=tracer
    )
    counters = tracer.metrics.snapshot()["counters"]
    assert counters["evaluations"] == result.n_evaluations == 2157
    assert counters["joins_charged"] == result.n_evaluations * query.n_joins


# ---------------------------------------------------------------------------
# Determinism of the trace itself


def test_same_seed_traces_are_identical(query) -> None:
    first = RecordingTracer()
    second = RecordingTracer()
    optimize(query, method="SA", seed=13, trace=first)
    optimize(query, method="SA", seed=13, trace=second)
    assert diff_traces(first.events, second.events) == []
    assert first.metrics.snapshot() == second.metrics.snapshot()


def test_same_seed_trace_files_are_byte_identical(query, tmp_path) -> None:
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        optimize(query, method="II", seed=2, trace=str(path))
    assert filecmp.cmp(paths[0], paths[1], shallow=False)


def test_event_sequence_and_clock_are_monotonic(query) -> None:
    tracer = RecordingTracer()
    optimize(query, method="IAI", seed=1, trace=tracer)
    seqs = [event.seq for event in tracer.events]
    assert seqs == list(range(len(seqs)))
    clocks = [event.clock for event in tracer.events]
    assert all(b >= a for a, b in zip(clocks, clocks[1:]))


# ---------------------------------------------------------------------------
# Schema round-trip: emit → JSONL → read → profile


def test_trace_round_trip(query, tmp_path) -> None:
    tracer = RecordingTracer()
    optimize(query, method="SA", seed=4, trace=tracer)
    path = tmp_path / "trace.jsonl"
    write_trace(tracer.events, str(path), meta={"method": "SA"})
    with open(path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
    assert header["meta"] == {"method": "SA"}
    loaded = read_trace(str(path))
    assert list(loaded) == list(tracer.events)
    with open(path, "r", encoding="utf-8") as handle:
        streamed = list(iter_trace(handle))
    assert streamed == list(tracer.events)

    profile = profile_events(loaded)
    assert profile.n_events == len(tracer.events)
    assert profile.final_cost is not None
    assert profile.kinds["run_start"] == 1
    assert profile.kinds["run_end"] == 1
    assert profile.root.total_units() == profile.clock_span

    def moves_in(node) -> int:
        return node.n_moves + sum(map(moves_in, node.children.values()))

    assert moves_in(profile.root) == profile.kinds.get("move", 0)


def test_trace_file_is_valid_jsonl(query, tmp_path) -> None:
    path = tmp_path / "trace.jsonl"
    optimize(query, method="II", seed=6, trace=str(path))
    with open(path, "r", encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    assert lines[0]["kind"] == "trace_header"
    assert lines[0]["version"] == 1
    for record in lines[1:]:
        event = TraceEvent.from_json_dict(record)
        assert event.kind


# ---------------------------------------------------------------------------
# The no-op backend


def test_null_tracer_is_shared_and_silent(query) -> None:
    before = NULL_TRACER.metrics.snapshot()
    result = optimize(query, method="II", seed=8)
    assert result.cost > 0
    assert NULL_TRACER.metrics.snapshot() == before
    assert not NULL_TRACER.enabled
