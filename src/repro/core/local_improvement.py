"""The local improvement heuristic (the paper's §4.3).

Given a join order, consider the first ``c`` relations (a *cluster*) and
replace them by the best valid permutation of the same relations; slide the
window forward by ``c - o`` positions (``o`` is the *overlap*) and repeat
until the end of the order; iterate passes until a pass changes nothing.
The strategy never makes the order worse, and the paper's feasible
strategies are, by decreasing cost and power: (5,4), (4,3), (3,2), (2,1),
(2,0).

Each candidate permutation is costed with a full plan evaluation (charged
to the budget), so a pass of ``(c, o)`` costs about
``c! * N / (c - o)`` plan evaluations — the factorial blow-up that stops
the paper at ``c = 5``.
"""

from __future__ import annotations

from itertools import permutations

from repro.catalog.join_graph import JoinGraph
from repro.core.budget import Budget, BudgetExhausted
from repro.core.state import Evaluation, Evaluator
from repro.obs import events as obs_events
from repro.plans.validity import is_valid_order

#: The paper's feasible strategies, strongest (most expensive) first.
FEASIBLE_STRATEGIES: tuple[tuple[int, int], ...] = (
    (5, 4),
    (4, 3),
    (3, 2),
    (2, 1),
    (2, 0),
)

_FACTORIALS = {2: 2, 3: 6, 4: 24, 5: 120}


def check_strategy(cluster_size: int, overlap: int, n_relations: int) -> None:
    """Validate a ``(c, o)`` strategy against the paper's constraints."""
    if not 2 <= cluster_size <= n_relations:
        raise ValueError(
            f"cluster size must be in [2, {n_relations}], got {cluster_size}"
        )
    if not 0 <= overlap <= cluster_size - 1:
        raise ValueError(
            f"overlap must be in [0, {cluster_size - 1}], got {overlap}"
        )


def pass_cost_estimate(
    cluster_size: int, overlap: int, n_relations: int
) -> float:
    """Approximate plan-evaluation units for one pass of ``(c, o)``."""
    step = cluster_size - overlap
    windows = max(1, (n_relations - cluster_size) // step + 1)
    permutations_per_window = _FACTORIALS.get(cluster_size, 1)
    n_joins = max(1, n_relations - 1)
    return windows * permutations_per_window * float(n_joins)


def best_strategy_for_budget(
    budget: Budget, n_relations: int
) -> tuple[int, int] | None:
    """The strongest feasible ``(c, o)`` whose single pass ``budget`` affords.

    Mirrors the paper's rule: run one pass of (5,4) if there is time for
    it, else one pass of (4,3), and so on; ``None`` when even (2,0) does
    not fit — always under a wall clock, which can promise no work.
    """
    for cluster_size, overlap in FEASIBLE_STRATEGIES:
        if cluster_size > n_relations:
            continue
        if budget.can_afford(
            pass_cost_estimate(cluster_size, overlap, n_relations)
        ):
            return cluster_size, overlap
    return None


def improve_pass(
    start: Evaluation,
    evaluator: Evaluator,
    cluster_size: int,
    overlap: int,
) -> Evaluation:
    """One left-to-right pass of cluster-wise exhaustive improvement.

    Raises :class:`~repro.core.budget.BudgetExhausted` mid-pass when the
    budget runs out; everything evaluated so far is recorded.
    """
    graph: JoinGraph = evaluator.graph
    tracer = evaluator.tracer
    n = graph.n_relations
    check_strategy(cluster_size, overlap, n)
    current = start
    step = cluster_size - overlap
    position = 0
    while position < n - 1:
        window_size = min(cluster_size, n - position)
        if window_size < 2:
            break
        # All candidates in this window share the prefix before it; prime
        # the delta evaluator's anchor on the current order so each
        # permutation re-costs only from ``position`` onward, bounded by
        # the best cost seen in the window.
        evaluator.prime(current.order)
        window = current.order.positions[position : position + window_size]
        best_in_window = current
        for candidate_window in permutations(window):
            if candidate_window == window:
                continue
            candidate = current.order.replace_segment(
                position, candidate_window
            )
            if not is_valid_order(candidate, graph):
                continue
            cost = evaluator.evaluate_candidate(
                candidate,
                upper_bound=best_in_window.cost,
                first_changed=position,
            )
            if cost is not None and cost < best_in_window.cost:
                best_in_window = Evaluation(candidate, cost)
        if tracer.enabled and best_in_window is not current:
            tracer.emit(
                obs_events.MOVE,
                outcome=obs_events.ACCEPTED,
                cost=best_in_window.cost,
                delta=best_in_window.cost - current.cost,
                window=position,
            )
            tracer.metrics.inc("moves_accepted")
        current = best_in_window
        position += step
    return current


def local_improve(
    start: Evaluation,
    evaluator: Evaluator,
    cluster_size: int,
    overlap: int,
    max_passes: int | None = None,
) -> Evaluation:
    """Run passes of ``(cluster_size, overlap)`` until a fixpoint.

    Non-overlapping strategies (``o = 0``) need a single pass, as the paper
    notes; overlapping ones repeat until no change (or ``max_passes``).
    Budget exhaustion ends the improvement and returns the best so far.
    """
    current = start
    passes = 0
    tracer = evaluator.tracer
    if tracer.enabled:
        tracer.phase_start(
            "local_improve", cluster=cluster_size, overlap=overlap
        )
    try:
        while True:
            improved = improve_pass(current, evaluator, cluster_size, overlap)
            passes += 1
            no_change = improved.order == current.order
            current = improved
            if overlap == 0 or no_change:
                break
            if max_passes is not None and passes >= max_passes:
                break
    except BudgetExhausted:
        if evaluator.best is not None and evaluator.best.cost < current.cost:
            current = evaluator.best
    finally:
        if tracer.enabled:
            tracer.phase_end("local_improve", passes=passes)
    return current
