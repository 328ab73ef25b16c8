"""Simulated annealing (the paper's Figure 2, JAMS87-style schedule).

The algorithm follows the paper's pseudo-code exactly; the schedule
parameters it leaves to [SG88]/[JAMS87] are implemented as in Johnson,
Aragon, McGeoch & Schevon's experimental study:

* **initial temperature** — chosen so that a target fraction
  (``initial_acceptance``, default 0.4) of uphill moves from the start
  state would be accepted, estimated from a sample of random neighbors;
* **chain length** — ``size_factor * N`` moves per temperature;
* **cooling** — geometric, ``T <- temp_factor * T`` (default 0.95);
* **freezing** — the system is frozen when the best solution has not
  improved for ``frozen_chains`` consecutive chains while the acceptance
  ratio stays below ``min_acceptance``.

The best state *visited* is returned (not the final state), and the run is
budget-bounded like every other method.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.budget import BudgetExhausted
from repro.core.moves import MoveSet, NoValidMove, move_validity
from repro.core.state import Evaluation, Evaluator
from repro.obs import events as obs_events
from repro.plans.join_order import JoinOrder


@dataclass(frozen=True)
class ChainStats:
    """Diagnostics for one completed temperature chain."""

    chain_index: int
    temperature: float
    acceptance_ratio: float
    current_cost: float
    best_cost: float


@dataclass(frozen=True)
class AnnealingSchedule:
    """Tunable parameters of the annealing schedule.

    JAMS87 recommend ``size_factor = 16`` against a CPU-seconds budget;
    this library's work-unit clock compresses the budget by orders of
    magnitude (see :mod:`repro.core.budget`), so the default chain length
    scales down accordingly — otherwise the system never cools before the
    budget expires and SA degenerates into a random walk.  The defaults
    below let SA freeze within a ``9 N^2`` budget at the default
    calibration while preserving the paper's qualitative ordering
    (II best, SA next, undirected baselines behind).
    """

    size_factor: int = 2
    temp_factor: float = 0.90
    initial_acceptance: float = 0.40
    min_acceptance: float = 0.02
    frozen_chains: int = 4
    temperature_floor: float = 1e-12

    def __post_init__(self) -> None:
        if self.size_factor < 1:
            raise ValueError("size_factor must be >= 1")
        if not 0.0 < self.temp_factor < 1.0:
            raise ValueError("temp_factor must be in (0, 1)")
        if not 0.0 < self.initial_acceptance < 1.0:
            raise ValueError("initial_acceptance must be in (0, 1)")


def initial_temperature(
    start: JoinOrder,
    start_cost: float,
    evaluator: Evaluator,
    move_set: MoveSet,
    rng: random.Random,
    schedule: AnnealingSchedule,
    sample_size: int = 20,
) -> float:
    """Temperature at which ``initial_acceptance`` of uphill moves pass.

    Samples random neighbors of the start state and solves
    ``exp(-delta / T) = initial_acceptance`` for ``T`` at the **median**
    uphill delta.  Join-order cost deltas are heavy-tailed (one bad move
    can cost orders of magnitude more than a typical one); the mean would
    set a temperature so high the system never cools within any
    reasonable budget, while the median targets the typical move the
    acceptance fraction is meant to describe.  When no uphill neighbor is
    found, a temperature proportional to the start cost is used.
    """
    uphill = []
    check = move_validity(start, evaluator.graph)
    for _ in range(sample_size):
        try:
            move, neighbor = move_set.random_valid_move(
                start, evaluator.graph, rng, check
            )
        except NoValidMove:
            break
        # Candidates share the start's prefix; none is committed, so the
        # anchor stays on the start state for the whole sample.
        delta = (
            evaluator.evaluate_candidate(
                neighbor, first_changed=move.first_changed
            )
            - start_cost
        )
        if delta > 0:
            uphill.append(delta)
    if uphill:
        uphill.sort()
        median_uphill = uphill[len(uphill) // 2]
        return median_uphill / -math.log(schedule.initial_acceptance)
    return max(start_cost, 1.0)


def simulated_annealing(
    start: JoinOrder,
    evaluator: Evaluator,
    move_set: MoveSet,
    rng: random.Random,
    schedule: AnnealingSchedule | None = None,
    observer: Callable[[ChainStats], None] | None = None,
) -> Evaluation:
    """Anneal from ``start``; return the best state visited.

    Budget exhaustion mid-run simply ends the walk; everything evaluated up
    to that point has been recorded by the evaluator.  ``observer``, when
    given, receives a :class:`ChainStats` after each completed chain —
    used by diagnostics to watch the cooling and acceptance behaviour.
    """
    if schedule is None:
        schedule = AnnealingSchedule()
    graph = evaluator.graph
    tracer = evaluator.tracer
    chain_length = schedule.size_factor * graph.n_relations
    try:
        current = start
        current_cost = evaluator.evaluate(start)
        best = Evaluation(current, current_cost)
        temperature = initial_temperature(
            start, current_cost, evaluator, move_set, rng, schedule
        )
        check = move_validity(current, graph)
        chains_without_improvement = 0
        chain_index = 0
        while True:
            accepted = 0
            for _ in range(chain_length):
                try:
                    move, neighbor = move_set.random_valid_move(
                        current, graph, rng, check
                    )
                except NoValidMove:
                    return best
                neighbor_cost = evaluator.evaluate_candidate(
                    neighbor, first_changed=move.first_changed
                )
                delta = neighbor_cost - current_cost
                accept = delta <= 0 or rng.random() < math.exp(
                    -delta / temperature
                )
                if accept:
                    evaluator.commit_candidate(neighbor)
                    check = check.after(move, neighbor)
                    prev_cost = current_cost
                    current, current_cost = neighbor, neighbor_cost
                    accepted += 1
                    if current_cost < best.cost:
                        best = Evaluation(current, current_cost)
                        chains_without_improvement = -1
                if tracer.enabled:
                    if accept:
                        tracer.metrics.inc("moves_accepted")
                        tracer.emit(
                            obs_events.MOVE,
                            outcome=obs_events.ACCEPTED,
                            cost=current_cost,
                            delta=current_cost - prev_cost,
                        )
                    else:
                        tracer.metrics.inc("moves_rejected")
                        tracer.emit(obs_events.MOVE, outcome=obs_events.REJECTED)
            chains_without_improvement += 1
            acceptance_ratio = accepted / chain_length
            if tracer.enabled:
                tracer.emit(
                    obs_events.CHAIN,
                    index=chain_index,
                    temperature=temperature,
                    acceptance=acceptance_ratio,
                    best_cost=best.cost,
                )
                tracer.metrics.inc("sa_chains")
            if observer is not None:
                observer(
                    ChainStats(
                        chain_index=chain_index,
                        temperature=temperature,
                        acceptance_ratio=acceptance_ratio,
                        current_cost=current_cost,
                        best_cost=best.cost,
                    )
                )
            chain_index += 1
            frozen = (
                chains_without_improvement >= schedule.frozen_chains
                and acceptance_ratio < schedule.min_acceptance
            )
            if frozen or temperature < schedule.temperature_floor:
                return best
            temperature *= schedule.temp_factor
    except BudgetExhausted:
        if evaluator.best is None:
            raise
        return evaluator.best

