"""Plan provenance: *why* did this plan win?

Reconstructs the incumbent lineage of one optimizer run from its trace:
every time the global best cost improved — a ``best`` event below the
running minimum, or a trusted ``bound`` pre-pass floor — one
:class:`IncumbentStep` records which method, phase, restart, and worker
produced the improvement and at what logical budget clock.  The chain
is a pure function of the event sequence, so it is byte-stable across
repeated same-seed runs and invariant to the worker count (the
orchestrator's merge already is).

Surfaced two ways:

* ``repro explain-trace RUN.jsonl`` renders the chain from a trace file;
* :func:`repro.core.optimizer.optimize` attaches the chain to
  ``OptimizationResult.provenance`` when tracing is on (the field is
  excluded from equality, so a traced result still compares equal to
  its untraced twin — tracing observes, never perturbs).

Traces that hold several runs (a caller may record many ``optimize``
calls into one tracer) are handled by slicing the last balanced
``run_start``..``run_end`` span before folding, so the chain always
describes the most recent completed run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Sequence

from repro.obs import events as ev
from repro.obs.events import TraceEvent

#: Provenance schema version (bumped when the dict layout changes).
PROVENANCE_VERSION = 1

#: ``IncumbentStep.source`` values.
SOURCE_BEST = "best"
SOURCE_PREPASS = "prepass_floor"


@dataclass(frozen=True)
class IncumbentStep:
    """One improvement of the global incumbent."""

    seq: int
    clock: float
    cost: float
    source: str  # SOURCE_BEST or SOURCE_PREPASS
    method: str
    phase: str  # open phase stack joined with "/" ("-" when none)
    worker: int | None  # restart attribution from the merge
    restart: int | None  # last restart index seen on this stream
    improvement: float | None  # previous incumbent cost minus this one


@dataclass(frozen=True)
class PlanProvenance:
    """The full lineage: improvement chain plus run-level footer."""

    steps: tuple[IncumbentStep, ...] = ()
    final_cost: float | None = None
    final_units: float | None = None
    n_events: int = 0


@dataclass
class _Stream:
    methods: list[str] = field(default_factory=list)
    phases: list[str] = field(default_factory=list)
    restart: int | None = None


def events_for_last_run(
    events: Sequence[TraceEvent],
) -> Sequence[TraceEvent]:
    """The suffix holding the last balanced ``run_start``..``run_end``.

    Walks backward counting ``run_end`` (+1) against ``run_start`` (-1);
    the index where the balance reaches zero opens the most recent
    completed run (worker-local and component sub-runs nest and cancel).
    Returns the full sequence when no balanced span exists (e.g. a
    still-open run, or a trace with no run events at all).
    """
    depth = 0
    saw_end = False
    for index in range(len(events) - 1, -1, -1):
        kind = events[index].kind
        if kind == ev.RUN_END:
            depth += 1
            saw_end = True
        elif kind == ev.RUN_START:
            depth -= 1
            if saw_end and depth == 0:
                return events[index:]
    return events


def build_provenance(
    events: Sequence[TraceEvent], last_run_only: bool = True
) -> PlanProvenance:
    """Fold a trace into the incumbent lineage of its (last) run."""
    if last_run_only:
        events = events_for_last_run(events)
    streams: dict[int | None, _Stream] = {}
    steps: list[IncumbentStep] = []
    best_cost: float | None = None
    final_cost: float | None = None
    final_units: float | None = None
    n_events = 0
    for event in events:
        n_events += 1
        stream = streams.get(event.worker)
        if stream is None:
            stream = _Stream()
            streams[event.worker] = stream
        candidate: float | None = None
        source = SOURCE_BEST
        if event.kind == ev.RUN_START:
            stream.methods.append(str(event.data.get("method", "?")))
        elif event.kind == ev.RUN_END:
            cost = event.data.get("cost")
            units = event.data.get("units")
            final_cost = float(cost) if cost is not None else None
            final_units = float(units) if units is not None else None
            if stream.methods:
                stream.methods.pop()
        elif event.kind == ev.PHASE_START:
            stream.phases.append(str(event.data.get("phase", "?")))
        elif event.kind == ev.PHASE_END:
            name = str(event.data.get("phase", "?"))
            if name in stream.phases:
                while stream.phases and stream.phases.pop() != name:
                    pass
        elif event.kind == ev.RESTART:
            index = event.data.get("index")
            stream.restart = int(index) if index is not None else None
        elif event.kind == ev.BEST:
            cost = event.data.get("cost")
            candidate = float(cost) if cost is not None else None
        elif event.kind == ev.BOUND:
            if event.data.get("kind") == "prepass_floor":
                value = event.data.get("value")
                candidate = float(value) if value is not None else None
                source = SOURCE_PREPASS
        if candidate is not None and (
            best_cost is None or candidate < best_cost
        ):
            steps.append(
                IncumbentStep(
                    seq=event.seq,
                    clock=event.clock,
                    cost=candidate,
                    source=source,
                    method=stream.methods[-1] if stream.methods else "?",
                    phase="/".join(stream.phases) if stream.phases else "-",
                    worker=event.worker,
                    restart=stream.restart,
                    improvement=(
                        best_cost - candidate
                        if best_cost is not None
                        else None
                    ),
                )
            )
            best_cost = candidate
    return PlanProvenance(
        steps=tuple(steps),
        final_cost=final_cost,
        final_units=final_units,
        n_events=n_events,
    )


def provenance_report(provenance: PlanProvenance) -> dict[str, Any]:
    """The lineage as a plain JSON-able dict (schema version 1)."""
    return {
        "provenance": "repro.obs.provenance",
        "version": PROVENANCE_VERSION,
        "events": provenance.n_events,
        "final_cost": provenance.final_cost,
        "final_units": provenance.final_units,
        "steps": [asdict(step) for step in provenance.steps],
    }


def provenance_json(provenance: PlanProvenance) -> str:
    """The report serialized canonically: byte-stable for equal traces."""
    return (
        json.dumps(
            provenance_report(provenance),
            indent=2,
            sort_keys=True,
            separators=(",", ": "),
        )
        + "\n"
    )


def render_provenance(provenance: PlanProvenance) -> str:
    """The human-readable "why this plan" chain."""
    lines: list[str] = []
    count = len(provenance.steps)
    lines.append(f"plan provenance: {count} incumbent update(s)")
    for number, step in enumerate(provenance.steps, start=1):
        where = "main" if step.worker is None else f"restart {step.worker}"
        improved = (
            f" (-{step.improvement:g})" if step.improvement is not None else ""
        )
        origin = (
            "pre-pass floor"
            if step.source == SOURCE_PREPASS
            else f"method {step.method}, phase {step.phase}"
        )
        lines.append(
            f"  #{number} cost {step.cost:g}{improved} "
            f"at clock {step.clock:g} — {origin} [{where}]"
        )
    if provenance.final_cost is not None:
        units = (
            f" after {provenance.final_units:g} units"
            if provenance.final_units is not None
            else ""
        )
        lines.append(f"final: cost {provenance.final_cost:g}{units}")
    return "\n".join(lines)
