"""Robustness subsystem: faults, fallbacks, verification, lying estimates.

Production query optimizers must *always* return the best valid plan found
so far, degraded if necessary — a crash, a corrupt statistic, or an expired
budget must never propagate to the caller as an unhandled exception.  And
even a crash-free optimizer consumes *estimates* that are routinely wrong
by orders of magnitude.  This package covers both failure axes:

:mod:`repro.robustness.faults`
    A deterministic, seedable fault-injection harness: wrap a cost model,
    corrupt a catalog, or sabotage a strategy, and drive the optimizer
    through every failure mode on purpose (chaos testing).
:mod:`repro.robustness.verify`
    The plan-verification gate every optimization result passes before it
    is returned, plus catalog validation and sanitization.
:mod:`repro.robustness.resilience`
    The fallback chain behind ``optimize(..., resilient=True)``: retry
    with rotated seeds, degrade method → augmentation → deterministic
    spanning order, and record every step in a structured ``FailureLog``.
:mod:`repro.robustness.estimates`
    The seeded q-error :class:`ErrorModel` that perturbs a catalog's
    statistics deterministically ("estimates are lies").
:mod:`repro.robustness.harness`
    The regret harness: optimize under perturbed statistics, re-cost
    under the truth, aggregate q-error-vs-regret curves into a
    byte-stable :class:`RobustnessReport`.
:mod:`repro.robustness.feedback`
    The measurement-feedback loop: execute the chosen plan on
    :mod:`repro.engine`, recalibrate the catalog from measured
    cardinalities, re-optimize, and report regret before/after.
"""

from repro.robustness.estimates import (
    DISTRIBUTIONS,
    LOG_NORMAL,
    LOG_UNIFORM,
    ErrorModel,
    q_error,
)
from repro.robustness.faults import (
    CORRUPTION_KINDS,
    FAULT_KINDS,
    FaultSpec,
    FaultyCostModel,
    FaultyStrategy,
    InjectedFault,
    StallingClock,
    corrupt_catalog,
)
from repro.robustness.feedback import (
    FeedbackReport,
    FeedbackResult,
    feedback_round,
    recalibrate,
    run_feedback,
)
from repro.robustness.harness import (
    CurvePoint,
    DEFAULT_METHODS,
    DEFAULT_Q_VALUES,
    REPORT_VERSION,
    RobustnessConfig,
    RobustnessReport,
    TrialResult,
    run_robustness,
    write_report,
)
from repro.plans.validity import deterministic_fallback_order
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
    "CORRUPTION_KINDS",
    "CurvePoint",
    "DEFAULT_METHODS",
    "DEFAULT_Q_VALUES",
    "DISTRIBUTIONS",
    "ErrorModel",
    "FAULT_KINDS",
    "FeedbackReport",
    "FeedbackResult",
    "LOG_NORMAL",
    "LOG_UNIFORM",
    "REPORT_VERSION",
    "RobustnessConfig",
    "RobustnessReport",
    "TrialResult",
    "feedback_round",
    "q_error",
    "recalibrate",
    "run_feedback",
    "run_robustness",
    "write_report",
    "FaultSpec",
    "FaultyCostModel",
    "FaultyStrategy",
    "InjectedFault",
    "StallingClock",
    "corrupt_catalog",
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
