"""The trace event schema: what one :class:`TraceEvent` may say.

A trace is an ordered sequence of structured events describing one
optimizer run's *search dynamics* — the quantities the paper's
experimental sections reason about (acceptance rates under the SA
schedule, II restart convergence, cost-evaluation counts) but the
result object cannot carry.

Determinism contract
--------------------
Events are stamped with two clocks, **neither of which is the wall
clock**:

``seq``
    A monotonic per-tracer sequence number (0, 1, 2, ...).  Total order
    of emission within one tracer.
``clock``
    The logical budget clock — ``Budget.spent`` at emission time (work
    units, see :mod:`repro.core.budget`).  Comparable across runs,
    machines, and worker counts.

Because no event reads ambient state (wall clock, OS entropy, process
ids), the trace of a seeded run is itself a pure function of the seed:
two runs of the same configuration produce byte-identical traces, and a
traced run is bit-identical to an untraced one (tracing only observes;
it never charges the budget, draws from an RNG, or alters control
flow).  ``python -m repro.obs diff`` builds on exactly this property.

Event kinds
-----------
=================  ======================================================
``run_start``      one optimizer invocation begins (method, sizes, seed)
``run_end``        the invocation's outcome (cost, units, evaluations)
``phase_start``    a named phase of a method begins (e.g. ``anneal``)
``phase_end``      that phase ends
``move``           a candidate move was priced: ``outcome`` is one of
                   ``accepted`` / ``rejected`` / ``pruned``
``best``           the evaluator recorded a new best cost
``chain``          one completed SA temperature chain (temperature,
                   acceptance ratio, chain index)
``restart``        a multi-start restart boundary (start index)
``bound``          a trusted bound was published (pre-pass floor or
                   early-stop target)
``fault``          a failure was observed (mirrors ``FailureRecord``)
``degraded``       a resilient run returned a degraded result
=================  ======================================================

``worker`` attributes an event to the orchestrator restart that emitted
it (``None`` for single-trajectory runs and parent-emitted events); the
deterministic merge assigns it, never the worker process itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

# Event kinds (the closed vocabulary; profile counts by these).
RUN_START = "run_start"
RUN_END = "run_end"
PHASE_START = "phase_start"
PHASE_END = "phase_end"
MOVE = "move"
BEST = "best"
CHAIN = "chain"
RESTART = "restart"
BOUND = "bound"
FAULT = "fault"
DEGRADED = "degraded"

#: Every kind a conforming trace may contain, in documentation order.
EVENT_KINDS: tuple[str, ...] = (
    RUN_START,
    RUN_END,
    PHASE_START,
    PHASE_END,
    MOVE,
    BEST,
    CHAIN,
    RESTART,
    BOUND,
    FAULT,
    DEGRADED,
)

#: ``move`` outcomes.
ACCEPTED = "accepted"
REJECTED = "rejected"
PRUNED = "pruned"
MOVE_OUTCOMES: tuple[str, ...] = (ACCEPTED, REJECTED, PRUNED)


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation, stamped with the logical clocks only."""

    seq: int
    clock: float
    kind: str
    data: Mapping[str, Any] = field(default_factory=dict)
    worker: int | None = None

    def restamped(
        self,
        seq: int,
        clock_offset: float = 0.0,
        worker: int | None = None,
    ) -> "TraceEvent":
        """A merge-restamped copy: new ``seq``, shifted clock, attribution.

        The orchestrator's deterministic merge lays worker-local traces
        end to end in restart-index order; each event keeps its payload
        but gets a parent-scope sequence number, a clock offset equal to
        the units spent before its restart (the same offset the merged
        trajectory uses), and the restart index as ``worker``.
        """
        return TraceEvent(
            seq=seq,
            clock=self.clock + clock_offset,
            kind=self.kind,
            data=self.data,
            worker=self.worker if worker is None else worker,
        )

    def to_json_dict(self) -> dict[str, Any]:
        """A JSON-safe dict with stable key order (writer format)."""
        record: dict[str, Any] = {
            "seq": self.seq,
            "clock": self.clock,
            "kind": self.kind,
        }
        if self.worker is not None:
            record["worker"] = self.worker
        if self.data:
            record["data"] = dict(self.data)
        return record

    @classmethod
    def from_json_dict(cls, record: Mapping[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_json_dict` (raises on malformed records)."""
        try:
            return cls(
                seq=int(record["seq"]),
                clock=float(record["clock"]),
                kind=str(record["kind"]),
                data=dict(record.get("data", {})),
                worker=(
                    int(record["worker"])
                    if record.get("worker") is not None
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed trace record {record!r}: {exc}")


class TraceFormatError(ValueError):
    """A serialized trace does not conform to the event schema."""
