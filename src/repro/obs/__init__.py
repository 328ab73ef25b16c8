"""repro.obs — deterministic tracing and metrics for the optimizer stack.

The package gives every optimizer run an optional structured record of
its search dynamics (a *trace* of events stamped with the logical
budget clock) plus a *metrics* registry of counters — without ever
perturbing the run itself.  The determinism contract, event schema, and
metrics catalog live in ``docs/observability.md``; the contract in one
line: **a traced run is bit-identical to an untraced one, and a seeded
run's trace is a pure function of its seed.**

Entry points::

    optimize(query, method="SA", seed=1, trace="run.jsonl")   # file sink
    tracer = RecordingTracer()
    optimize(query, method="SA", seed=1, trace=tracer)        # in memory
    python -m repro.obs profile run.jsonl                     # reader CLI
"""

from repro.obs.events import (
    ACCEPTED,
    EVENT_KINDS,
    MOVE_OUTCOMES,
    PRUNED,
    REJECTED,
    TraceEvent,
    TraceFormatError,
)
from repro.obs.bench import (
    BenchCheckReport,
    BenchDelta,
    check as bench_check,
    record as bench_record,
)
from repro.obs.metrics import Metrics
from repro.obs.profile import (
    SearchProfile,
    collapsed_stacks,
    profile_events,
    profile_json,
    profile_report,
    render_profile,
)
from repro.obs.provenance import (
    IncumbentStep,
    PlanProvenance,
    build_provenance,
    provenance_json,
    render_provenance,
)
from repro.obs.tracer import NULL_TRACER, RecordingTracer, Tracer, as_tracer
from repro.obs.writer import (
    TRACE_VERSION,
    diff_traces,
    iter_trace,
    read_trace,
    write_metrics,
    write_trace,
)

__all__ = [
    "ACCEPTED",
    "BenchCheckReport",
    "BenchDelta",
    "EVENT_KINDS",
    "IncumbentStep",
    "Metrics",
    "MOVE_OUTCOMES",
    "NULL_TRACER",
    "PRUNED",
    "PlanProvenance",
    "REJECTED",
    "RecordingTracer",
    "SearchProfile",
    "TRACE_VERSION",
    "TraceEvent",
    "TraceFormatError",
    "Tracer",
    "as_tracer",
    "bench_check",
    "bench_record",
    "build_provenance",
    "collapsed_stacks",
    "diff_traces",
    "iter_trace",
    "profile_events",
    "profile_json",
    "profile_report",
    "provenance_json",
    "read_trace",
    "render_profile",
    "render_provenance",
    "write_metrics",
    "write_trace",
]
