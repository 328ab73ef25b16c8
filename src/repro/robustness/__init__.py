"""Robustness subsystem: verification, the resilient guards, injected faults.

The paper's methods are anytime searches: they return the best valid plan
found so far.  Under ``resilient=True`` a crashing strategy or an expired
budget yields a degraded plan or ``NoValidPlanError``, never another
exception; on every path, no plan reaches the caller unverified.

:mod:`repro.robustness.verify`
    The plan-verification gate every optimization result passes before it
    is returned.
:mod:`repro.robustness.resilience`
    The two guards behind ``optimize(..., resilient=True)``: the plain
    search run once with its exceptions caught, and the deterministic
    spanning order as the last resort, every failure recorded in a
    structured ``FailureLog``.
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
    resilient_optimize,
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
    "resilient_optimize",
    "PlanVerificationError",
    "VerificationReport",
    "verify_or_raise",
    "verify_plan",
]
