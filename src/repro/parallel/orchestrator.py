"""Process-pool multi-start orchestration with deterministic merging.

The paper's combinatorial methods are embarrassingly parallel across
restarts: each restart is a pure function of its derived seed and budget
share.  This module fans restarts out to a process pool and merges their
results so that, **for any seed, ``workers=N`` returns an
``OptimizationResult`` bit-identical to ``workers=1``** — the invariant
the differential harness in ``tests/test_parallel_search.py`` enforces.

How the pieces keep that invariant while still sharing work globally:

Pre-pass floor (the deterministic shared bound)
    Before fanning out, the parent prices the deterministic spanning
    order (:func:`~repro.plans.validity.deterministic_fallback_order`)
    once.  Its cost ``F`` is threaded into every restart's evaluator as
    ``record_floor``: a start state that provably prices above ``F`` is
    skipped (its descent would begin above a plan the merge already
    holds), so every worker inherits the incremental evaluator's
    upper-bound pruning *globally* — and identically, because ``F`` does
    not depend on scheduling.

Deterministic merge
    The winner is the minimum by ``(cost, restart index)``, with the
    pre-pass order winning only on strictly smaller cost.  Units spent
    are summed in ascending restart index (fixed float summation order)
    and the merged trajectory is the monotone-decreasing envelope of the
    restarts' trajectories laid end to end in index order — exactly the
    bookkeeping a serial sweep over the same restarts would produce.

Crash recovery
    A worker that dies mid-restart (or any pool-level failure) is logged
    as a :class:`~repro.robustness.resilience.FailureRecord` on the
    :class:`ParallelReport` and its restart is re-executed serially in
    the parent — never dropped — so the merged result is still
    bit-identical to the crash-free run.  Crash records live on the
    report, not the result: the result must compare equal across runs
    that did and did not crash.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.core.optimizer import OptimizationResult

from repro.catalog.join_graph import JoinGraph, Query
from repro.core.budget import (
    Budget,
    BudgetExhausted,
    DEFAULT_UNITS_PER_N2,
    WallClockBudget,
)
from repro.core.combinations import MethodParams, Strategy
from repro.cost.base import CostModel, CostOverflowError
from repro.obs import events as obs_events
from repro.obs.events import TraceEvent
from repro.obs.metrics import Metrics
from repro.obs.tracer import RecordingTracer, Tracer
from repro.plans.join_order import JoinOrder
from repro.plans.validity import deterministic_fallback_order
from repro.robustness.faults import InjectedFault
from repro.robustness.resilience import FailureLog, FailureRecord
from repro.utils.rng import derive_seed

#: Restart count used when the caller asks for orchestration (``workers``
#: and/or ``restarts``) without fixing the count.  A constant independent
#: of the worker count, so ``workers=4`` and ``workers=1`` run the same
#: restarts by default.
DEFAULT_RESTARTS = 8

# Set by the pool initializer.  It guards the crash-injection hook: a
# ``crash`` job only kills the process when it actually runs inside a pool
# worker, so the serial re-execution of that same job in the parent
# completes normally.
_IN_POOL_WORKER = False


def _pool_init() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


@dataclass(frozen=True)
class OptimizeJob:
    """One self-contained, picklable ``optimize()`` invocation.

    ``limit`` of ``None`` lets ``optimize`` derive the paper budget from
    ``time_factor``/``units_per_n2``; the orchestrator always sets an
    explicit share.  ``crash`` is the fault-injection hook: the job calls
    ``os._exit`` when (and only when) executed inside a pool worker.
    """

    graph: JoinGraph
    method: str | Strategy
    model: CostModel
    seed: int
    index: int
    tag: str
    limit: float | None = None
    time_factor: float = 9.0
    units_per_n2: float = DEFAULT_UNITS_PER_N2
    params: MethodParams | None = None
    record_floor: float | None = None
    stop_at_bound: bool = False
    bound_tolerance: float = 1.05
    crash: bool = False
    #: Record a worker-local trace and ship it back on the outcome.  A
    #: bool (not a tracer object) so the job stays picklable; the parent
    #: merges the shipped events deterministically by restart index.
    trace: bool = False


@dataclass(frozen=True)
class JobOutcome:
    """What one job produced: a result, or how far it got before failing."""

    index: int
    tag: str
    result: object | None  # OptimizationResult | None
    units_spent: float
    error: str | None = None
    #: Worker-local trace events (empty unless the job asked to trace).
    events: tuple[TraceEvent, ...] = ()
    #: Worker-local metrics snapshot (JSON-safe; crosses the pool pickle).
    metrics: dict | None = None


def run_job(job: OptimizeJob) -> JobOutcome:
    """Execute one job (in a pool worker or inline in the parent)."""
    if job.crash and _IN_POOL_WORKER:
        # Simulate a hard worker crash: no exception, no cleanup, the
        # process is simply gone.  The parent sees BrokenProcessPool.
        os._exit(17)
    from repro.core.optimizer import optimize

    budget = Budget(limit=job.limit) if job.limit is not None else None
    tracer = RecordingTracer() if job.trace else None
    try:
        result = optimize(
            job.graph,
            method=job.method,
            model=job.model,
            time_factor=job.time_factor,
            units_per_n2=job.units_per_n2,
            seed=job.seed,
            budget=budget,
            params=job.params,
            stop_at_bound=job.stop_at_bound,
            bound_tolerance=job.bound_tolerance,
            record_floor=job.record_floor,
            trace=tracer,
        )
    except BudgetExhausted as exc:
        if budget is not None:
            spent = budget.spent
        else:
            spent = Budget.for_query(
                max(1, job.graph.n_joins), job.time_factor, job.units_per_n2
            ).limit
        return JobOutcome(
            job.index, job.tag, None, spent, str(exc),
            events=tuple(tracer.events) if tracer is not None else (),
            metrics=tracer.metrics.snapshot() if tracer is not None else None,
        )
    return JobOutcome(
        job.index, job.tag, result, result.units_spent, None,
        events=tuple(tracer.events) if tracer is not None else (),
        metrics=tracer.metrics.snapshot() if tracer is not None else None,
    )


def map_jobs(
    jobs: list[OptimizeJob],
    workers: int,
    failure_log: FailureLog | None = None,
) -> list[JobOutcome]:
    """Run jobs across ``workers`` processes; outcomes in job order.

    With one worker (or one job) everything runs inline — no pool, no
    pickling, and the crash-injection hook stays inert.  Pool failures
    (a worker killed mid-job, a pickling error, a broken pool) are
    logged to ``failure_log`` and the affected jobs re-executed serially
    in the parent, so no job is ever dropped and the returned outcomes
    are independent of how (or whether) the pool misbehaved.
    """
    outcomes: dict[int, JobOutcome] = {}
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init
        ) as pool:
            futures = {pool.submit(run_job, job): job for job in jobs}
            for future in as_completed(futures):
                job = futures[future]
                try:
                    outcomes[job.index] = future.result()
                # boundary: pool failures are logged, the job re-run serially
                except Exception as exc:  # noqa: BLE001
                    if failure_log is not None:
                        failure_log.add(
                            stage=f"parallel-worker-{job.index}",
                            method=job.tag,
                            seed=job.seed,
                            kind=type(exc).__name__,
                            detail=str(exc) or "worker process died",
                            action="re-executed serially in parent",
                        )
    for job in jobs:
        if job.index not in outcomes:
            outcomes[job.index] = run_job(job)
    return [outcomes[job.index] for job in jobs]


@dataclass(frozen=True)
class ParallelReport:
    """Orchestration metadata that must stay OFF the result.

    Crash records and pool telemetry vary between runs that produced the
    *same* plan; keeping them here preserves the differential invariant
    that ``OptimizationResult`` compares equal across worker counts and
    across crashed/clean executions.
    """

    restarts: int
    workers: int
    share: float
    prepass_cost: float
    best_bound: float
    failures: tuple[FailureRecord, ...] = ()
    #: Per-restart ``(index, cost or None, units spent)`` in index order.
    outcomes: tuple[tuple[int, float | None, float], ...] = ()

    @property
    def crashed(self) -> bool:
        return bool(self.failures)


def multi_start_optimize(
    query: Query | JoinGraph,
    method: str | Strategy = "IAI",
    model: CostModel | None = None,
    time_factor: float = 9.0,
    units_per_n2: float = DEFAULT_UNITS_PER_N2,
    seed: int = 0,
    budget: Budget | None = None,
    params: MethodParams | None = None,
    restarts: int | None = None,
    workers: int | None = None,
    stop_at_bound: bool = False,
    bound_tolerance: float = 1.05,
    crash_indices: tuple[int, ...] = (),
    tracer: Tracer | None = None,
) -> "tuple[OptimizationResult, ParallelReport]":
    """Multi-start optimization: parallel fan-out, deterministic merge.

    Returns ``(result, report)``: the merged
    :class:`~repro.core.optimizer.OptimizationResult` — bit-identical
    for every ``workers`` value — and the :class:`ParallelReport` with
    the orchestration telemetry (crashes, per-restart outcomes, the best
    finite cost among the pre-pass floor and the restarts).

    Each restart ``k`` runs the full ``optimize()`` machinery on an
    equal budget share with seed ``derive_seed(seed, "worker", k)``, so
    a restart's outcome is a pure function of ``(seed, k, share)`` and
    never of which process ran it when.  ``crash_indices`` marks
    restarts that kill their pool worker mid-job (test hook).  A
    :class:`~repro.core.budget.WallClockBudget` raises ``ValueError``:
    seconds cannot be shared out ahead of time to restarts that may
    queue behind one another.

    With a recording ``tracer``, every restart records a worker-local
    trace (shipped back through the pool as plain events) and the parent
    lays them end to end in restart-index order — never completion
    order — with each restart's clocks offset by the units spent before
    it, exactly like the merged trajectory.  The merged trace is
    therefore identical for every worker count, crashes included.
    """
    from repro.core.optimizer import (
        OptimizationResult,
        _method_label,
        _single_relation_result,
    )
    from repro.robustness.verify import verify_or_raise

    graph = query.graph if isinstance(query, Query) else query
    if model is None:
        from repro.cost.memory import MainMemoryCostModel

        model = MainMemoryCostModel()
    if params is None:
        params = MethodParams()
    if restarts is None:
        restarts = DEFAULT_RESTARTS
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    workers = 1 if workers is None else int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if isinstance(budget, WallClockBudget):
        raise ValueError(
            "a wall-clock budget cannot be shared across restarts: a "
            "restart queued behind others would find its deadline gone; "
            "give workers/restarts a unit budget (time_factor or Budget)"
        )
    label = _method_label(method)
    n_joins = max(1, graph.n_joins)
    if budget is None:
        budget = Budget.for_query(n_joins, time_factor, units_per_n2)

    if graph.n_relations == 1:
        # One plan and no join to price: there is nothing to restart.
        result = _single_relation_result(graph, method)
        report = ParallelReport(
            restarts=0, workers=workers, share=0.0,
            prepass_cost=result.cost, best_bound=result.cost,
        )
        return result, report

    # Pre-pass: price the deterministic spanning order once.  Its cost is
    # the floor F every restart inherits for start-state pruning, and the
    # merge's fallback candidate.  Charged like any other evaluation.
    budget.charge(float(n_joins))
    prepass_mark = budget.spent
    fallback = deterministic_fallback_order(graph)
    try:
        floor: float | None = model.plan_cost(fallback, graph)
        if not math.isfinite(floor):
            floor = None
    except (CostOverflowError, InjectedFault, ValueError):
        # An unpriceable floor only disables the pre-pass pruning floor;
        # anything else a model raises is a bug and must propagate.
        floor = None
    tracing = tracer is not None and tracer.enabled
    if tracing and floor is not None:
        tracer.emit(obs_events.BOUND, kind="prepass_floor", value=floor)
        tracer.metrics.inc("bounds_published")

    share = budget.share(1, restarts).limit
    jobs = [
        OptimizeJob(
            graph=graph,
            method=method,
            model=model,
            seed=derive_seed(seed, "worker", k),
            index=k,
            tag=f"{label}#{k}",
            limit=share,
            time_factor=time_factor,
            units_per_n2=units_per_n2,
            params=params,
            record_floor=floor,
            stop_at_bound=stop_at_bound,
            bound_tolerance=bound_tolerance,
            crash=(k in crash_indices),
            trace=tracing,
        )
        for k in range(restarts)
    ]

    failure_log = FailureLog()
    outcomes = map_jobs(jobs, workers, failure_log=failure_log)

    # Deterministic merge: minimum by (cost, restart index); the pre-pass
    # order wins only on strictly smaller cost.
    winner: JobOutcome | None = None
    for outcome in outcomes:
        if outcome.result is not None and (
            winner is None or outcome.result.cost < winner.result.cost
        ):
            winner = outcome
    if winner is None and floor is None:
        raise BudgetExhausted(
            "budget expired before any plan could be evaluated"
        )
    if winner is not None and (floor is None or winner.result.cost <= floor):
        best_order: JoinOrder = winner.result.order
        best_cost: float = winner.result.cost
    else:
        best_order, best_cost = fallback, floor

    # Serial-equivalent bookkeeping: units in ascending index order, the
    # trajectory as the monotone-decreasing envelope with each restart's
    # points offset by everything spent before it.
    trajectory: list[tuple[float, float]] = []
    best_so_far = math.inf
    if floor is not None:
        trajectory.append((prepass_mark, floor))
        best_so_far = floor
    offset = prepass_mark
    total_evaluations = 1 if floor is not None else 0
    for outcome in outcomes:
        if tracing and isinstance(tracer, RecordingTracer):
            # The trace merge mirrors the trajectory merge exactly: the
            # restart's events keep their order, clocks shift by the
            # units spent before it, and the restart index becomes the
            # worker attribution — index order, never completion order.
            restart_data: dict[str, object] = {
                "index": outcome.index,
                "units": outcome.units_spent,
            }
            if outcome.result is not None:
                # Per-restart attribution for the profiler/provenance
                # readers: deterministic (outcomes are index-ordered and
                # worker-count invariant), so merged traces stay
                # bit-identical across worker counts.
                restart_data["cost"] = outcome.result.cost
            tracer.extend_merged(
                [
                    TraceEvent(
                        seq=0,
                        clock=0.0,
                        kind=obs_events.RESTART,
                        data=restart_data,
                    )
                ],
                clock_offset=offset,
                worker=outcome.index,
            )
            tracer.extend_merged(
                list(outcome.events),
                clock_offset=offset,
                worker=outcome.index,
            )
            tracer.metrics.inc("restarts")
            tracer.metrics.gauge(
                f"worker.{outcome.index}.units", outcome.units_spent
            )
            if outcome.metrics is not None:
                tracer.metrics.merge(Metrics.from_snapshot(outcome.metrics))
        if outcome.result is not None:
            total_evaluations += outcome.result.n_evaluations
            for units, cost in outcome.result.trajectory:
                if cost < best_so_far:
                    best_so_far = cost
                    trajectory.append((offset + units, cost))
        offset += outcome.units_spent
    budget.spent = min(budget.limit, offset)
    if tracing:
        # Pool crashes arrive in completion order; mirror them into the
        # trace in a canonical order so crash-free traces stay identical
        # across worker counts and crashed traces are at least stable.
        for record in sorted(
            failure_log.as_tuple(), key=lambda r: (r.stage, r.kind)
        ):
            tracer.emit(
                obs_events.FAULT,
                stage=record.stage,
                kind=record.kind,
                action=record.action,
            )
            tracer.metrics.inc("faults")

    result = OptimizationResult(
        method=label,
        graph=graph,
        order=best_order,
        cost=best_cost,
        units_spent=budget.spent,
        n_evaluations=total_evaluations,
        trajectory=tuple(trajectory),
    )
    verify_or_raise(result.order, result.cost, graph, model)
    per_restart = tuple(
        (
            o.index,
            o.result.cost if o.result is not None else None,
            o.units_spent,
        )
        for o in outcomes
    )
    costs = [cost for _, cost, _ in per_restart if cost is not None]
    if floor is not None:
        costs.append(floor)
    report = ParallelReport(
        restarts=restarts,
        workers=workers,
        share=share,
        prepass_cost=floor if floor is not None else math.inf,
        best_bound=min(
            (cost for cost in costs if math.isfinite(cost)), default=math.inf
        ),
        failures=failure_log.as_tuple(),
        outcomes=per_restart,
    )
    return result, report
