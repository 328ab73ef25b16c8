"""Iterative improvement (the paper's Figure 1).

A single run is the greedy walk: from a start state, repeatedly sample a
random adjacent state and move to it when it is cheaper, until a local
minimum is reached.  Checking *all* neighbors to certify a local minimum
costs ``O(N^2)`` evaluations, so — as in the paper's lineage — the local
minimum condition is approximated: a state is declared locally minimal
after ``patience`` consecutive sampled neighbors fail to improve it.

The multi-start driver lives in :mod:`repro.core.combinations`; this module
provides the single run that every combination builds on.
"""

from __future__ import annotations

import random

from repro.core.budget import BudgetExhausted
from repro.core.moves import MoveSet, NoValidMove, move_validity
from repro.core.state import Evaluation, Evaluator
from repro.obs import events as obs_events
from repro.plans.join_order import JoinOrder


def default_patience(n_relations: int) -> int:
    """Failed-neighbor streak that declares a local minimum.

    Scales with the neighborhood size; floors at 16 so tiny queries still
    sample a meaningful share of their neighborhoods.
    """
    return max(16, 2 * n_relations)


def improvement_run(
    start: JoinOrder,
    evaluator: Evaluator,
    move_set: MoveSet,
    rng: random.Random,
    patience: int | None = None,
    start_cost: float | None = None,
) -> Evaluation | None:
    """One run of iterative improvement from ``start``.

    Returns the local minimum reached (or the best state so far when the
    budget expires mid-run — :class:`BudgetExhausted` propagates to the
    caller *after* the evaluator has recorded everything evaluated).

    When the evaluator carries a ``record_floor`` (the parallel
    orchestrator's globally shared bound), the start state is priced with
    that floor as its upper bound; a start whose walk aborts — it provably
    costs more than both the floor and the local best — is *skipped* and
    the run returns ``None``, so the budget flows to the next start
    instead of a descent that begins above a plan already in hand.  The
    bound an in-progress descent uses is unchanged: the incumbent's cost
    is always the tightest sound bound for an acceptance-driven walk.
    """
    if patience is None:
        patience = default_patience(evaluator.graph.n_relations)
    current = start
    if start_cost is None:
        if evaluator.record_floor is not None:
            bounded = evaluator.evaluate_candidate(
                start, upper_bound=evaluator.record_floor
            )
            if bounded is None:
                return None
            evaluator.commit_candidate(start)
            current_cost = bounded
        else:
            current_cost = evaluator.evaluate(start)
    else:
        current_cost = start_cost
        evaluator.prime(start)
    tracer = evaluator.tracer
    check = move_validity(current, evaluator.graph)
    depth = 0  # accepted moves this descent (improvement_depth histogram)
    failures = 0
    while failures < patience:
        try:
            move, neighbor = move_set.random_valid_move(
                current, evaluator.graph, rng, check
            )
        except NoValidMove:
            break
        # The incumbent's cost is the bound: any candidate whose running
        # total exceeds it would be rejected anyway, so its suffix walk
        # can stop early (``None`` means exactly that).
        neighbor_cost = evaluator.evaluate_candidate(
            neighbor,
            upper_bound=current_cost,
            first_changed=move.first_changed,
        )
        if neighbor_cost is not None and neighbor_cost < current_cost:
            evaluator.commit_candidate(neighbor)
            check = check.after(move, neighbor)
            prev_cost = current_cost
            current, current_cost = neighbor, neighbor_cost
            failures = 0
            depth += 1
            if tracer.enabled:
                tracer.emit(
                    obs_events.MOVE,
                    outcome=obs_events.ACCEPTED,
                    cost=neighbor_cost,
                    delta=neighbor_cost - prev_cost,
                )
                tracer.metrics.inc("moves_accepted")
        else:
            failures += 1
            if tracer.enabled:
                outcome = (
                    obs_events.PRUNED
                    if neighbor_cost is None
                    else obs_events.REJECTED
                )
                tracer.emit(obs_events.MOVE, outcome=outcome)
                tracer.metrics.inc(
                    "moves_pruned"
                    if neighbor_cost is None
                    else "moves_rejected"
                )
    if tracer.enabled:
        tracer.metrics.observe("improvement_depth", float(depth))
    return Evaluation(current, current_cost)


def multi_start_improvement(
    starts,
    evaluator: Evaluator,
    move_set: MoveSet,
    rng: random.Random,
    patience: int | None = None,
) -> Evaluation | None:
    """Run iterative improvement from each start until the budget expires.

    ``starts`` is an iterable (possibly infinite) of
    :class:`~repro.plans.join_order.JoinOrder` start states.  Returns the
    best local minimum found, or ``None`` when the budget expired before
    the first evaluation (the evaluator's ``best`` is authoritative either
    way).
    """
    best: Evaluation | None = None
    tracer = evaluator.tracer
    try:
        for index, start in enumerate(starts):
            if tracer.enabled:
                tracer.emit(obs_events.RESTART, index=index)
                tracer.metrics.inc("restarts")
            local = improvement_run(
                start, evaluator, move_set, rng, patience=patience
            )
            if local is not None and (best is None or local.cost < best.cost):
                best = local
    except BudgetExhausted:
        pass
    if evaluator.best is not None:
        if best is None or evaluator.best.cost < best.cost:
            best = evaluator.best
    return best
