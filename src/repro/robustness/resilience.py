"""The failure log of ``optimize(..., resilient=True)``.

The paper's framing is anytime combinatorial search under a fixed time
budget: the optimizer must **always return the best valid plan found so
far**, degraded if necessary.  A resilient run is the plain search, run
once by the same driver (:func:`repro.core.optimizer.optimize`) on the
same evaluator, random stream and budget; what differs is what happens
on a failure.  Where the plain run raises, a resilient run records a
:class:`FailureRecord` in its :class:`FailureLog` and applies one of two
guards:

1. **Guarded attempt** — a strategy that raises mid-search is caught; the
   best plan its evaluator had already recorded still counts.
2. **Last resort** — when the attempt leaves no plan that passes the
   verification gate (:func:`~repro.robustness.verify.verify_plan`), a
   deterministic spanning order (smallest-cardinality greedy growth,
   components contiguous), valid by construction, is priced and gated.

On a run where nothing fails the result *is* the plain result.  Only when
neither the search nor the spanning order verifies does
:class:`NoValidPlanError` escape, carrying the failure log.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import events as obs_events
from repro.obs.tracer import Tracer


@dataclass(frozen=True)
class FailureRecord:
    """One failure the resilient path observed, and what it did about it."""

    stage: str  # "attempt", "component", "last-resort", "concatenation"
    method: str
    seed: int | None
    kind: str  # "exception" | "no-plan" | "verification"
    detail: str
    action: str

    def __str__(self) -> str:
        seed = "" if self.seed is None else f" (seed {self.seed})"
        return (
            f"[{self.stage}] {self.method}{seed}: {self.kind} — "
            f"{self.detail} -> {self.action}"
        )


@dataclass
class FailureLog:
    """An ordered record of every failure seen during one optimization.

    With a recording ``tracer`` attached, every record is mirrored into
    the trace as a ``fault`` event at the moment it is logged — the
    trace and the log tell the same story in the same order.  The field
    is excluded from comparison so logs compare on their records alone.
    """

    records: list[FailureRecord] = field(default_factory=list)
    tracer: Tracer | None = field(default=None, repr=False, compare=False)

    def add(self, **kwargs) -> None:
        record = FailureRecord(**kwargs)
        self.records.append(record)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.emit(
                obs_events.FAULT,
                stage=record.stage,
                method=record.method,
                kind=record.kind,
                action=record.action,
            )
            self.tracer.metrics.inc("faults")

    def as_tuple(self) -> tuple[FailureRecord, ...]:
        return tuple(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def summary(self) -> str:
        """Multi-line human-readable summary (printed to stderr by the CLI)."""
        if not self.records:
            return "no failures recorded"
        lines = [f"{len(self.records)} failure(s) during optimization:"]
        lines.extend(f"  {record}" for record in self.records)
        return "\n".join(lines)


class NoValidPlanError(RuntimeError):
    """Neither the search nor the spanning order produced a valid plan."""

    def __init__(self, message: str, failures: FailureLog) -> None:
        super().__init__(f"{message}\n{failures.summary()}")
        self.failures = failures
