"""Trace and metrics serialization, and the trace comparator.

The on-disk trace format is one JSON object per line, preceded by a
header line carrying the format version::

    {"kind": "trace_header", "version": 1}
    {"seq": 0, "clock": 0.0, "kind": "run_start", "data": {...}}
    {"seq": 1, "clock": 19.0, "kind": "move", "data": {...}}

Line-oriented so traces stream (a reader can fold a trace larger than
memory line by line) and diff cleanly under standard tools.  Keys
are emitted in a fixed order and floats round-trip exactly (``json``
serializes them via ``repr``), so *identical traces serialize to
identical bytes* — the property ``python -m repro.obs diff`` and the
workers=N ≡ workers=1 companion check rely on.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Iterator, Sequence

from repro.obs.events import TraceEvent, TraceFormatError
from repro.obs.metrics import Metrics

#: Format version stamped on every trace file.
TRACE_VERSION = 1

_HEADER_KIND = "trace_header"


def _dump(record: dict[str, Any]) -> str:
    return json.dumps(record, separators=(",", ":"), sort_keys=False)


def write_trace(
    events: Iterable[TraceEvent], path: str, meta: dict[str, Any] | None = None
) -> None:
    """Write a trace file: header line, then one event per line.

    ``meta`` (method, seed, query size, ...) rides on the header; the
    readers take the same values from the first ``run_start`` event.
    """
    header: dict[str, Any] = {"kind": _HEADER_KIND, "version": TRACE_VERSION}
    if meta:
        header["meta"] = dict(meta)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_dump(header) + "\n")
        for event in events:
            handle.write(_dump(event.to_json_dict()) + "\n")


def iter_trace(handle: IO[str]) -> Iterator[TraceEvent]:
    """Stream events from an open trace file (header validated first)."""
    first = handle.readline()
    if not first.strip():
        raise TraceFormatError("empty trace file")
    header = _parse_line(first, 1)
    if header.get("kind") != _HEADER_KIND:
        raise TraceFormatError(
            "missing trace_header line (is this a repro.obs trace?)"
        )
    if header.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {header.get('version')!r}; "
            f"this reader understands version {TRACE_VERSION}"
        )
    for number, line in enumerate(handle, start=2):
        if not line.strip():
            continue
        yield TraceEvent.from_json_dict(_parse_line(line, number))


def _parse_line(line: str, number: int) -> dict[str, Any]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {number}: not valid JSON: {exc}")
    if not isinstance(record, dict):
        raise TraceFormatError(f"line {number}: expected a JSON object")
    return record


def read_trace(path: str) -> list[TraceEvent]:
    """Load a whole trace file into memory."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_trace(handle))


def write_metrics(metrics: Metrics, path: str) -> None:
    """Persist a metrics snapshot as pretty-printed, sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(metrics.snapshot(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def diff_traces(
    left: Sequence[TraceEvent],
    right: Sequence[TraceEvent],
    max_report: int = 10,
) -> list[str]:
    """Describe where two traces diverge (empty list == identical).

    Compares event-by-event on the full tuple (seq, clock, kind, worker,
    data) — the bit-identity the determinism contract promises for equal
    seeds, so *any* line here is a determinism violation worth a bug
    report.  At most ``max_report`` differing events are described; the
    cap is only tested once a difference is found, so identical traces
    always compare empty.
    """
    differences: list[str] = []
    common = min(len(left), len(right))
    for index in range(common):
        a, b = left[index], right[index]
        if a != b:
            if len(differences) >= max_report:
                differences.append("... (further differences suppressed)")
                return differences
            differences.append(
                f"event {index}: "
                f"{a.kind}@{a.clock:g}{_worker_tag(a)} {dict(a.data)!r} != "
                f"{b.kind}@{b.clock:g}{_worker_tag(b)} {dict(b.data)!r}"
            )
    if len(left) != len(right):
        differences.append(
            f"length: {len(left)} events vs {len(right)} events"
        )
    return differences


def _worker_tag(event: TraceEvent) -> str:
    return f"/w{event.worker}" if event.worker is not None else ""
