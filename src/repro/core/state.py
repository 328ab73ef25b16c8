"""Budget-charging plan evaluation and best-solution tracking.

Every optimizer funnels its cost evaluations through an :class:`Evaluator`,
which charges the budget (one unit per join evaluated), keeps the best
solution seen, and records the *trajectory* of improvements as
``(units_spent, best_cost)`` pairs.  The trajectory is what makes one run
at the largest time limit yield the results for every smaller limit — the
same trick the paper's sweeps rely on.

Two evaluators share that contract:

* :class:`Evaluator` — the reference oracle: every candidate is priced by
  a full :meth:`~repro.cost.base.CostModel.plan_cost` walk.
* :class:`DeltaEvaluator` — the production path for the models it
  supports: candidates are priced by the prefix-cached
  :class:`~repro.cost.incremental.IncrementalEvaluator`, with optional
  bound pruning, and every candidate is charged per plan exactly like
  the reference evaluator.

:func:`make_evaluator` is the one place a search picks between them.

The *candidate protocol* (:meth:`Evaluator.evaluate_candidate`,
:meth:`Evaluator.commit_candidate`, :meth:`Evaluator.prime`) is what the
search loops call; on the base evaluator it degrades to plain
``evaluate``, so every strategy runs unchanged on either evaluator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph
from repro.core.budget import Budget
from repro.cost.base import CostModel
from repro.cost.incremental import IncrementalEvaluator, supports_incremental
from repro.obs import events as obs_events
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.plans.join_order import JoinOrder

@dataclass(frozen=True)
class Evaluation:
    """A join order together with its evaluated cost."""

    order: JoinOrder
    cost: float


class TargetReached(Exception):
    """The evaluator found a solution at or below its target cost.

    Used for the paper's early-stopping rule: "the optimizer can stop if
    it obtains a solution whose cost is sufficiently close to a lower
    bound on the cost of the optimal solution."
    """


class Evaluator:
    """Charges the budget for plan evaluations and tracks the best plan.

    ``target_cost``, when set, raises :class:`TargetReached` as soon as a
    solution at or below it has been recorded — optimizers treat it like
    budget exhaustion and return the best solution found.
    """

    def __init__(
        self,
        graph: JoinGraph,
        model: CostModel,
        budget: Budget,
        target_cost: float | None = None,
        record_floor: float | None = None,
    ) -> None:
        self.graph = graph
        self.model = model
        self.budget = budget
        self.target_cost = target_cost
        #: A globally inherited upper bound on the best *relevant* cost —
        #: the parallel orchestrator sets this to its deterministic
        #: pre-pass floor so every restart prunes start states that price
        #: above a plan the merge already holds.  Search loops may pass it
        #: as ``upper_bound`` wherever a candidate pricier than the floor
        #: cannot matter; ``None`` (the default) changes nothing.
        self.record_floor = record_floor
        self.n_evaluations = 0
        self.best: Evaluation | None = None
        self.trajectory: list[tuple[float, float]] = []
        #: Observability backend.  The default is the no-op
        #: :data:`~repro.obs.tracer.NULL_TRACER`; every hook below is
        #: guarded by one ``tracer.enabled`` attribute check, so tracing
        #: costs nothing when off and never perturbs the run when on
        #: (events read the budget clock, they never charge it).
        self.tracer: Tracer = NULL_TRACER

    def evaluate(self, order: JoinOrder) -> float:
        """Cost of ``order``; charges ``n_joins`` units; updates the best.

        Raises :class:`~repro.core.budget.BudgetExhausted` when the budget
        cannot pay for the evaluation, and :class:`TargetReached` when the
        early-stopping target has been met.
        """
        self.budget.charge(float(self.graph.n_joins))
        cost = self.model.plan_cost(order, self.graph)
        self.n_evaluations += 1
        if self.tracer.enabled:
            metrics = self.tracer.metrics
            metrics.inc("evaluations")
            metrics.inc("joins_walked", float(self.graph.n_joins))
            metrics.inc("joins_charged", float(self.graph.n_joins))
        self._record(order, cost)
        self._check_target()
        return cost

    def _check_target(self) -> None:
        if (
            self.target_cost is not None
            and self.best is not None
            and self.best.cost <= self.target_cost
        ):
            raise TargetReached(
                f"solution cost {self.best.cost:.6g} at or below target "
                f"{self.target_cost:.6g}"
            )

    def evaluate_candidate(
        self,
        order: JoinOrder,
        upper_bound: float | None = None,
        first_changed: int | None = None,
    ) -> float | None:
        """Price a *candidate* the caller may or may not adopt.

        The reference evaluator ignores both hints and always returns the
        full cost.  :class:`DeltaEvaluator` overrides this with prefix
        reuse and bound pruning — ``None`` means the running total
        exceeded ``upper_bound``, which under a strictly-less-than
        acceptance test is equivalent to rejection.  ``first_changed`` is
        the move's first changed position, an advisory cap on prefix
        sharing.
        """
        return self.evaluate(order)

    def commit_candidate(self, order: JoinOrder) -> None:
        """Tell the evaluator the last candidate was accepted (no-op here).

        :class:`DeltaEvaluator` re-anchors its prefix cache on the
        accepted order without re-walking it.
        """

    def prime(self, order: JoinOrder) -> None:
        """Declare ``order`` the walk's current state (no-op here).

        Unlike ``evaluate``, priming charges nothing and records nothing —
        it only lets :class:`DeltaEvaluator` anchor its prefix cache when
        the caller already knows the current state's cost.
        """

    def _record(self, order: JoinOrder, cost: float) -> None:
        if not math.isfinite(cost):
            # A NaN/inf cost must never become (or poison) the best
            # solution: NaN in particular compares false against
            # everything and would freeze ``best`` forever.
            return
        if self.best is None or cost < self.best.cost:
            self.best = Evaluation(order, cost)
            self.trajectory.append((self.budget.spent, cost))
            if self.tracer.enabled:
                self.tracer.emit(obs_events.BEST, cost=cost)
                self.tracer.metrics.inc("best_updates")
                self.tracer.metrics.gauge("best_cost", cost)

    def best_cost_within(self, units: float) -> float | None:
        """Best cost found by the time ``units`` had been spent.

        ``None`` when no solution had been evaluated that early.
        """
        index = bisect_right(self.trajectory, units, key=lambda point: point[0])
        if index == 0:
            return None
        return self.trajectory[index - 1][1]

    def _safe_bound(self, upper_bound: float | None) -> float | None:
        """Clamp the caller's bound so pruning can never affect ``best``.

        A pruned candidate costs strictly more than the effective bound;
        keeping that bound at or above the best recorded cost (and
        disabling pruning while nothing is recorded) guarantees the pruned
        candidate could not have become the new best — the trajectory
        stays identical to the reference oracle's.
        """
        if upper_bound is None or self.best is None:
            return None
        if upper_bound < self.best.cost:
            return self.best.cost
        return upper_bound


class DeltaEvaluator(Evaluator):
    """Evaluator backed by the prefix-cached incremental engine.

    Candidates priced through :meth:`evaluate_candidate` reuse the cost
    chain of the walk's current order up to the first changed position,
    and an ``upper_bound`` aborts the suffix walk as soon as the running
    total exceeds it.  Full (unaborted) evaluations return floats bitwise
    identical to :meth:`~repro.cost.base.CostModel.plan_cost`, so the base
    :class:`Evaluator` remains a drop-in reference oracle.

    Every evaluation — even a pruned one — charges ``n_joins`` units up
    front, exactly like the reference evaluator, so published
    paper-reproduction budgets and their BudgetExhausted points are
    preserved bit for bit.

    Pruned candidates are never recorded: the effective bound is clamped
    to at least the best recorded cost (and pruning is disabled until a
    first solution is recorded), so a pruned candidate provably could not
    have improved ``best`` — trajectories match the reference oracle's.
    The one divergence is exceptions: an aborted walk may stop before an
    overflow the full walk would surface as
    :class:`~repro.cost.cardinality.CostOverflowError`; the candidate is
    rejected either way.
    """

    def __init__(
        self,
        graph: JoinGraph,
        model: CostModel,
        budget: Budget,
        target_cost: float | None = None,
        record_floor: float | None = None,
    ) -> None:
        if not supports_incremental(model):
            raise ValueError(
                f"cost model {model!r} overrides plan_cost and cannot be "
                "evaluated incrementally; use the base Evaluator"
            )
        super().__init__(
            graph, model, budget, target_cost=target_cost,
            record_floor=record_floor,
        )
        self.engine = IncrementalEvaluator(graph, model)
        #: Joins actually walked (full or aborted), across all evaluations.
        self.n_joins_evaluated = 0
        #: Candidates whose walk was aborted by the upper bound.
        self.n_pruned = 0

    def evaluate(self, order: JoinOrder) -> float:
        """Full evaluation through the engine; re-anchors the prefix cache."""
        self.budget.charge(float(self.graph.n_joins))
        cost, joins = self.engine.rebase(order.positions)
        self.n_joins_evaluated += joins
        self.n_evaluations += 1
        if self.tracer.enabled:
            self._trace_evaluation(joins, pruned=False)
        self._record(order, cost)
        self._check_target()
        return cost

    def evaluate_candidate(
        self,
        order: JoinOrder,
        upper_bound: float | None = None,
        first_changed: int | None = None,
    ) -> float | None:
        self.budget.charge(float(self.graph.n_joins))
        cost, joins = self.engine.evaluate(
            order.positions, self._safe_bound(upper_bound), first_changed
        )
        self.n_joins_evaluated += joins
        self.n_evaluations += 1
        if cost is None:
            self.n_pruned += 1
        else:
            self._record(order, cost)
        if self.tracer.enabled:
            self._trace_evaluation(joins, pruned=cost is None)
        self._check_target()
        return cost

    def _trace_evaluation(self, joins: int, pruned: bool) -> None:
        """Cold path: metric updates for one engine evaluation."""
        metrics = self.tracer.metrics
        metrics.inc("evaluations")
        metrics.inc("joins_walked", float(joins))
        metrics.inc("joins_charged", float(self.graph.n_joins))
        if pruned:
            metrics.inc("pruned")

    def commit_candidate(self, order: JoinOrder) -> None:
        self.engine.commit(order.positions)

    def prime(self, order: JoinOrder) -> None:
        self.engine.prime(order.positions)


def make_evaluator(
    graph: JoinGraph,
    model: CostModel,
    budget: Budget,
    target_cost: float | None = None,
    record_floor: float | None = None,
) -> Evaluator:
    """The evaluator a search runs on: the delta engine wherever it applies.

    Models that override ``plan_cost`` (static heuristics, fault
    injectors) define their own plan semantics and keep the full
    reference :class:`Evaluator`.  Where both apply they return
    bit-identical results; the parity tests reach the reference by
    patching :func:`supports_incremental` here.
    """
    kind = DeltaEvaluator if supports_incremental(model) else Evaluator
    return kind(
        graph, model, budget, target_cost=target_cost,
        record_floor=record_floor,
    )
