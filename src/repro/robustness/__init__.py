"""Robustness subsystem: verification, fallbacks, injected faults.

Production query optimizers must *always* return the best valid plan found
so far, degraded if necessary — a crash, a corrupt statistic, or an expired
budget must never propagate to the caller as an unhandled exception.

:mod:`repro.robustness.verify`
    The plan-verification gate every optimization result passes before it
    is returned, plus catalog validation and sanitization.
:mod:`repro.robustness.resilience`
    The fallback chain behind ``optimize(..., resilient=True)``: retry
    with rotated seeds, degrade method → augmentation → deterministic
    spanning order, and record every step in a structured ``FailureLog``.
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
    catalog_violations,
    sanitize_catalog,
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
    "catalog_violations",
    "sanitize_catalog",
    "verify_or_raise",
    "verify_plan",
]
