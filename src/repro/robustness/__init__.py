"""Robustness subsystem: verification, the failure log, injected faults.

The paper's methods are anytime searches: they return the best valid plan
found so far.  Under ``resilient=True`` a crashing strategy or an expired
budget yields a degraded plan or ``NoValidPlanError``, never another
exception; on every path, no plan reaches the caller unverified.

:mod:`repro.robustness.verify`
    The plan-verification gate every optimization result passes before it
    is returned.
:mod:`repro.robustness.resilience`
    The ``FailureLog`` of ``optimize(..., resilient=True)``: the one
    driver runs the plain search once, and where the plain run raises,
    a resilient run records the failure and keeps the search's best
    plan or falls back to the deterministic spanning order.
:mod:`repro.robustness.faults`
    :class:`InjectedFault`, the error the test suite's fault-injection
    doubles raise and the orchestrator's pre-pass catches.
"""

from repro.plans.validity import deterministic_fallback_order
from repro.robustness.faults import InjectedFault
from repro.robustness.resilience import (
    FailureLog,
    FailureRecord,
    NoValidPlanError,
)
from repro.robustness.verify import (
    PlanVerificationError,
    VerificationReport,
    verify_or_raise,
    verify_plan,
)

__all__ = [
    "InjectedFault",
    "FailureLog",
    "FailureRecord",
    "NoValidPlanError",
    "deterministic_fallback_order",
    "PlanVerificationError",
    "VerificationReport",
    "verify_or_raise",
    "verify_plan",
]
