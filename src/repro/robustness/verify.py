"""The plan-verification gate.

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

The gate checks plans, not statistics: the ``Relation``, ``Selection``
and ``JoinPredicate`` constructors reject non-positive or non-finite
values where they enter, and ``JoinGraph`` checks distinct counts
against row counts unless built with ``validate=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.catalog.join_graph import JoinGraph
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
