"""Sensitivity of plan quality to cardinality-estimation errors.

The optimizer only ever sees *estimated* statistics.  This analysis
perturbs a query's catalog statistics by random factors up to a given
magnitude, optimizes under the perturbed statistics, and prices the
resulting join order under the *true* statistics — measuring how much
plan quality degrades as estimates get worse.  (A question the paper
does not study, but one any adopter of its methods faces.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph, Query
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.core.budget import DEFAULT_UNITS_PER_N2
from repro.core.optimizer import optimize
from repro.cost.base import CostModel
from repro.cost.memory import MainMemoryCostModel
from repro.utils.rng import derive_rng


def perturb_graph(
    graph: JoinGraph, rng: random.Random, max_error_factor: float
) -> JoinGraph:
    """A copy of ``graph`` with statistics perturbed up to the factor.

    Every base cardinality and distinct-value count is multiplied by an
    independent factor log-uniform in ``[1/f, f]``, and distinct counts
    are capped by their relation's perturbed cardinality.  Factors are
    drawn in a fixed order: relations by index, then predicates in graph
    order, left side before right.  ``f = 1`` draws nothing.
    """
    if not 1.0 <= max_error_factor < math.inf:
        raise ValueError(
            f"max_error_factor must be finite and >= 1, got {max_error_factor!r}"
        )
    low = 1.0 / max_error_factor

    def factor() -> float:
        if max_error_factor == 1.0:
            return 1.0
        return low * (max_error_factor / low) ** rng.random()

    relations = [
        Relation(
            relation.name,
            max(2, int(round(relation.base_cardinality * factor()))),
            relation.selections,
        )
        for relation in graph.relations
    ]
    predicates = []
    for predicate in graph.predicates:
        left_factor = factor()
        right_factor = factor()
        predicates.append(
            JoinPredicate(
                predicate.left,
                predicate.right,
                left_distinct=min(
                    relations[predicate.left].cardinality,
                    max(1.0, predicate.left_distinct * left_factor),
                ),
                right_distinct=min(
                    relations[predicate.right].cardinality,
                    max(1.0, predicate.right_distinct * right_factor),
                ),
            )
        )
    return JoinGraph(relations, predicates)


@dataclass(frozen=True)
class SensitivityPoint:
    """Plan-quality degradation at one error magnitude."""

    error_factor: float
    mean_degradation: float
    worst_degradation: float
    n_trials: int


def sensitivity_analysis(
    query: Query,
    error_factors: tuple[float, ...] = (1.0, 2.0, 5.0, 10.0),
    n_trials: int = 5,
    method: str = "IAI",
    model: CostModel | None = None,
    time_factor: float = 3.0,
    units_per_n2: float = DEFAULT_UNITS_PER_N2,
    seed: int = 0,
) -> list[SensitivityPoint]:
    """Degradation curve: true cost of plans chosen under wrong statistics.

    For each error factor, ``n_trials`` perturbed catalogs are drawn; the
    plan optimized under each is re-priced under the true statistics and
    divided by the cost of the plan optimized under the true statistics.
    A ratio of 1.0 means estimation error did not change plan quality.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if model is None:
        model = MainMemoryCostModel()
    graph = query.graph
    reference = optimize(
        query,
        method=method,
        model=model,
        time_factor=time_factor,
        units_per_n2=units_per_n2,
        seed=seed,
    )
    reference_cost = model.plan_cost(reference.order, graph)

    points = []
    for error_factor in error_factors:
        degradations = []
        for trial in range(n_trials):
            rng = derive_rng(seed, "sensitivity", error_factor, trial)
            perturbed = perturb_graph(graph, rng, error_factor)
            chosen = optimize(
                perturbed,
                method=method,
                model=model,
                time_factor=time_factor,
                units_per_n2=units_per_n2,
                seed=seed + trial,
            )
            true_cost = model.plan_cost(chosen.order, graph)
            degradations.append(true_cost / reference_cost)
        points.append(
            SensitivityPoint(
                error_factor=error_factor,
                mean_degradation=sum(degradations) / len(degradations),
                worst_degradation=max(degradations),
                n_trials=n_trials,
            )
        )
    return points
