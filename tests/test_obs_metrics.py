"""Unit tests for the repro.obs metrics registry and trace writer."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    Metrics,
    TraceEvent,
    TraceFormatError,
    read_trace,
    write_metrics,
    write_trace,
)


# ---------------------------------------------------------------------------
# Metrics registry


def test_metrics_merge_semantics() -> None:
    left, right = Metrics(), Metrics()
    left.inc("evaluations", 3)
    left.inc("pruned")
    right.inc("evaluations", 4)
    right.inc("restarts")
    left.merge(right)
    assert left.counters == {"evaluations": 7.0, "pruned": 1.0, "restarts": 1.0}
    assert right.counters == {"evaluations": 4.0, "restarts": 1.0}


def test_metrics_snapshot_round_trip() -> None:
    metrics = Metrics()
    metrics.inc("b_counter")
    metrics.inc("a_counter", 2.5)
    snapshot = metrics.snapshot()
    assert list(snapshot) == ["counters"]
    assert list(snapshot["counters"]) == ["a_counter", "b_counter"]
    rebuilt = Metrics.from_snapshot(snapshot)
    assert rebuilt.snapshot() == snapshot


def test_metrics_json_file_round_trip(tmp_path) -> None:
    metrics = Metrics()
    metrics.inc("evaluations", 12)
    metrics.inc("best_updates", 3)
    path = tmp_path / "metrics.json"
    write_metrics(metrics, str(path))
    written = json.loads(path.read_text())
    assert written == {"counters": {"best_updates": 3.0, "evaluations": 12.0}}
    assert Metrics.from_snapshot(written).snapshot() == metrics.snapshot()


# ---------------------------------------------------------------------------
# Trace writer format errors


def test_iter_trace_rejects_missing_header(tmp_path) -> None:
    path = tmp_path / "bad.jsonl"
    path.write_text('{"seq": 0, "clock": 0.0, "kind": "move"}\n')
    with pytest.raises(TraceFormatError):
        read_trace(str(path))


def test_iter_trace_rejects_future_version(tmp_path) -> None:
    path = tmp_path / "future.jsonl"
    path.write_text('{"kind": "trace_header", "version": 999, "meta": {}}\n')
    with pytest.raises(TraceFormatError):
        read_trace(str(path))


def test_write_trace_preserves_event_payload(tmp_path) -> None:
    events = [
        TraceEvent(seq=0, clock=0.0, kind="run_start", data={"seed": 1}),
        TraceEvent(seq=1, clock=2.5, kind="move",
                   data={"outcome": "accepted", "cost": 9.0}, worker=3),
    ]
    path = tmp_path / "t.jsonl"
    write_trace(events, str(path))
    loaded = read_trace(str(path))
    assert list(loaded) == events
    assert loaded[1].worker == 3
    assert loaded[1].data["outcome"] == "accepted"
