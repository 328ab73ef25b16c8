"""The plan-verification gate and catalog validation.

Every :class:`~repro.core.optimizer.OptimizationResult` passes through
:func:`verify_plan` before ``optimize()`` returns it, so a buggy move
generator, a corrupted estimator, or a broken cost model can never silently
hand the caller an invalid plan.  The gate checks four invariants:

1. **Permutation completeness** — the order places every relation exactly
   once.
2. **Cross-product validity** — no relation joins before it is connected
   to the already placed part of its component (components contiguous).
3. **Finite, non-negative cost** — ``NaN``/``inf``/negative plan costs are
   symptoms, never answers.
4. **Cost recomputation agreement** — re-pricing the order with the same
   model reproduces the reported cost, so the cost attached to the plan is
   the plan's cost and not a stale or fabricated number.

The catalog half (:func:`catalog_violations`, :func:`sanitize_catalog`)
serves the resilient optimizer's pre-flight check: detect corrupted
statistics (non-positive or non-finite cardinalities, missing or excessive
distinct-value counts) before the search starts, and repair them with
conservative clamps so a degraded-but-valid optimization can proceed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation
from repro.cost.base import CostModel
from repro.plans.join_order import JoinOrder
from repro.plans.validity import first_invalid_position

#: Relative tolerance for the cost-recomputation agreement check.  Plan
#: costs are deterministic sums of float products, so agreement is exact in
#: practice; the tolerance only absorbs benign cross-platform rounding.
COST_AGREEMENT_REL_TOL = 1e-6


class PlanVerificationError(RuntimeError):
    """An optimization result failed the plan-verification gate."""

    def __init__(self, violations: tuple[str, ...]) -> None:
        super().__init__(
            "plan failed verification: " + "; ".join(violations)
        )
        self.violations = violations


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one pass through the verification gate."""

    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_plan(
    order: JoinOrder,
    cost: float,
    graph: JoinGraph,
    model: CostModel,
    rel_tolerance: float = COST_AGREEMENT_REL_TOL,
) -> VerificationReport:
    """Check the four gate invariants; never raises, returns a report."""
    violations: list[str] = []
    n = graph.n_relations
    positions = tuple(order)
    if len(positions) != n or sorted(positions) != list(range(n)):
        violations.append(
            f"order {order} is not a permutation of relations 0..{n - 1}"
        )
        return VerificationReport(False, tuple(violations))

    invalid_at = first_invalid_position(order, graph)
    if invalid_at is not None:
        violations.append(
            f"premature cross product: relation {order[invalid_at]} at "
            f"position {invalid_at} joins nothing placed before it"
        )

    if not math.isfinite(cost):
        violations.append(f"plan cost {cost!r} is not finite")
    elif cost < 0:
        violations.append(f"plan cost {cost!r} is negative")
    else:
        try:
            recomputed = model.plan_cost(order, graph)
        except Exception as exc:  # boundary: a broken model is itself a violation
            violations.append(
                f"cost recomputation raised {type(exc).__name__}: {exc}"
            )
        else:
            if not math.isclose(
                recomputed, cost, rel_tol=rel_tolerance, abs_tol=1e-9
            ):
                violations.append(
                    f"reported cost {cost!r} disagrees with recomputed "
                    f"cost {recomputed!r}"
                )
    return VerificationReport(not violations, tuple(violations))


def verify_or_raise(
    order: JoinOrder,
    cost: float,
    graph: JoinGraph,
    model: CostModel,
) -> None:
    """Gate used on the non-resilient path: raise on any violation."""
    report = verify_plan(order, cost, graph, model)
    if not report.ok:
        raise PlanVerificationError(report.violations)


# ----------------------------------------------------------------------
# Catalog validation and sanitization (resilient pre-flight)
# ----------------------------------------------------------------------


def _is_bad_number(value: object) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return not math.isfinite(value)


def catalog_violations(graph: JoinGraph) -> list[str]:
    """Human-readable list of every corrupted statistic in ``graph``.

    Empty for a healthy catalog.  Mirrors the checks
    :class:`~repro.catalog.join_graph.JoinGraph` applies at construction
    time, but inspects an *existing* graph — the resilient optimizer uses
    it as a pre-flight check against statistics corrupted after
    construction (stale serialized stats, fault injection, bit rot).
    """
    violations: list[str] = []
    for index, relation in enumerate(graph.relations):
        rows = relation.base_cardinality
        if _is_bad_number(rows) or rows <= 0:
            violations.append(
                f"relation {relation.name!r} (vertex {index}) has invalid "
                f"cardinality {rows!r}"
            )
        for selection in relation.selections:
            s = selection.selectivity
            if _is_bad_number(s) or not 0.0 < s <= 1.0:
                violations.append(
                    f"relation {relation.name!r} (vertex {index}) has "
                    f"invalid selection selectivity {s!r}"
                )
    for predicate in graph.predicates:
        for side in (predicate.left, predicate.right):
            distinct = predicate.distinct_values(side)
            if _is_bad_number(distinct) or distinct <= 0:
                violations.append(
                    f"edge {predicate.left}-{predicate.right} has missing "
                    f"or invalid distinct count {distinct!r} on relation "
                    f"{side}"
                )
                continue
            rows = graph.relations[side].base_cardinality
            if not _is_bad_number(rows) and rows > 0 and distinct > rows:
                violations.append(
                    f"edge {predicate.left}-{predicate.right} claims "
                    f"{distinct:g} distinct values on relation {side}, "
                    f"which has only {rows:g} rows"
                )
    return violations


def sanitize_catalog(graph: JoinGraph) -> JoinGraph:
    """A validated copy of ``graph`` with corrupted statistics repaired.

    Conservative clamps: invalid cardinalities become 1 row, invalid
    selection predicates are dropped (selectivity 1.0), and invalid or
    excessive distinct counts are clamped into ``[1, rows]``.  The repaired
    graph is structurally identical (same vertices, same edges), so any
    valid order for it is valid for the original.
    """
    relations: list[Relation] = []
    for relation in graph.relations:
        rows = relation.base_cardinality
        if _is_bad_number(rows) or rows <= 0:
            rows = 1
        selections = tuple(
            selection
            for selection in relation.selections
            if not _is_bad_number(selection.selectivity)
            and 0.0 < selection.selectivity <= 1.0
        )
        if rows == relation.base_cardinality and selections == relation.selections:
            relations.append(relation)
        else:
            relations.append(
                Relation(relation.name, int(rows), tuple(selections))
            )

    def repaired_distinct(value: float, side: int) -> float:
        rows = relations[side].base_cardinality
        if _is_bad_number(value) or value <= 0:
            return float(rows)
        return float(min(value, rows))

    predicates = [
        JoinPredicate(
            predicate.left,
            predicate.right,
            repaired_distinct(predicate.left_distinct, predicate.left),
            repaired_distinct(predicate.right_distinct, predicate.right),
        )
        for predicate in graph.predicates
    ]
    return JoinGraph(relations, predicates)
