"""Tracers: the no-op default and the recording backend.

Design constraints, in priority order:

1. **Determinism-safe by construction.**  A tracer may only *observe*.
   It never charges the budget, never draws from an RNG, never reads
   the wall clock, and never influences control flow — so a traced run
   is bit-identical to an untraced one, and the trace itself is a pure
   function of the run's seed (detlint's DET001/DET002 hold over this
   package; DET002's ``verified_clean`` in
   :data:`repro.analysis.config.RULE_OPTIONS` registers it as a module
   set that must never read the clock).
2. **Free when off.**  The default backend is :data:`NULL_TRACER`, and
   every instrumentation site is guarded by one attribute check
   (``if tracer.enabled:``); the payload dict is only built when a
   recording backend is installed.  ``benchmarks/test_perf_obs.py``
   holds this to <2% on the incremental-evaluation hot path.
3. **Mergeable.**  Worker-local tracers cross the process boundary as
   plain event tuples and counter snapshots; the orchestrator merges
   them in restart-index order (never completion order).

Usage::

    tracer = RecordingTracer()
    result = optimize(query, method="II", trace=tracer)
    write_trace(tracer.events, "run.jsonl")        # or optimize(trace="run.jsonl")
    tracer.metrics.snapshot()                       # {"counters": {...}}
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.events import TraceEvent
from repro.obs.metrics import Metrics

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.core.budget import Budget


class Tracer:
    """The no-op base tracer: every hook is one attribute check away.

    ``enabled`` is a *class* attribute, so the hot-path guard
    ``if tracer.enabled:`` costs a single attribute load on the
    default backend and the interpreter never builds event payloads.
    All mutating methods are no-ops; subclasses that record set
    ``enabled = True`` and override them.
    """

    enabled = False

    #: Shared discard registry: never written (all writes are guarded by
    #: ``enabled`` checks), present so unguarded reads cannot crash.
    metrics = Metrics()

    def bind_clock(self, budget: "Budget | None") -> None:
        """Adopt ``budget.spent`` as the logical clock (no-op here)."""

    def emit(self, kind: str, /, **data: Any) -> None:
        """Record one event (no-op here).

        ``kind`` is positional-only so payload keys named ``kind`` (as
        the ``bound`` events use) never collide with it.
        """

    def phase_start(self, name: str, /, **data: Any) -> None:
        """Convenience: emit a ``phase_start`` event (no-op here)."""

    def phase_end(self, name: str, /, **data: Any) -> None:
        """Convenience: emit a ``phase_end`` event (no-op here)."""


#: The process-wide default backend.  Instrumented code paths hold a
#: reference to this singleton unless a recording tracer is installed.
NULL_TRACER = Tracer()


class RecordingTracer(Tracer):
    """Collects events in memory and counts metrics.

    The logical clock reads ``Budget.spent`` of whichever budget is
    currently bound (the optimizer binds its own as the run starts);
    events emitted before any budget exists are stamped at clock 0.0.
    """

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.metrics = Metrics()
        self._budget: "Budget | None" = None
        self._seq = 0

    def bind_clock(self, budget: "Budget | None") -> None:
        self._budget = budget

    @property
    def clock(self) -> float:
        budget = self._budget
        return budget.spent if budget is not None else 0.0

    def emit(self, kind: str, /, **data: Any) -> None:
        self.events.append(
            TraceEvent(seq=self._seq, clock=self.clock, kind=kind, data=data)
        )
        self._seq += 1

    def phase_start(self, name: str, /, **data: Any) -> None:
        from repro.obs import events as _events

        self.emit(_events.PHASE_START, phase=name, **data)

    def phase_end(self, name: str, /, **data: Any) -> None:
        from repro.obs import events as _events

        self.emit(_events.PHASE_END, phase=name, **data)

    def extend_merged(
        self,
        events: list[TraceEvent],
        clock_offset: float,
        worker: int,
    ) -> None:
        """Append a worker-local trace, restamped into this tracer's scope.

        Events keep their relative order; sequence numbers continue this
        tracer's own counter, clocks shift by ``clock_offset`` (the units
        spent before the restart, mirroring the merged trajectory), and
        every event is attributed to restart ``worker``.
        """
        for event in events:
            self.events.append(
                event.restamped(self._seq, clock_offset, worker)
            )
            self._seq += 1


def as_tracer(trace: "Tracer | str | None") -> tuple[Tracer, str | None]:
    """Resolve ``optimize(trace=...)``'s argument.

    ``None`` keeps the no-op backend; a :class:`Tracer` is used as-is
    (no sink); a string/path enables recording and names the JSONL file
    the caller should flush the trace to when the run completes.
    """
    if trace is None:
        return NULL_TRACER, None
    if isinstance(trace, Tracer):
        return trace, None
    path = str(getattr(trace, "__fspath__", lambda: trace)())
    return RecordingTracer(), path
