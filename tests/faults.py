"""Deterministic, seedable fault injection for chaos-testing the optimizer.

Test doubles that manufacture failure modes on demand, deterministically,
so every chaos test is bit-for-bit reproducible:

* :class:`FaultyCostModel` wraps any cost model and injects NaN/inf/negative
  costs, exceptions, or artificial wall-clock stalls at chosen evaluations.
* :class:`FaultyStrategy` wraps any optimization method and makes it crash
  after a chosen number of evaluations — the mid-anneal worker death the
  massively-parallel setting must tolerate.
* :class:`StallingClock` is an injectable clock for
  :class:`~repro.core.budget.WallClockBudget` that advances deterministic,
  scripted amounts — wall-clock expiry without actual waiting.

Injected errors are :class:`repro.robustness.faults.InjectedFault`, the
one class the package itself knows about: the orchestrator's pre-pass
catches it.  Every stochastic choice flows from
:func:`repro.utils.rng.derive_rng`, so a seeded fault plan fires
identically across runs and processes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.catalog.join_graph import JoinGraph
from repro.core.combinations import MethodParams, Strategy, make_strategy
from repro.core.state import Evaluator
from repro.cost.base import CostModel
from repro.cost.cardinality import QueryContext, start_state, step
from repro.plans.join_order import JoinOrder
from repro.robustness.faults import InjectedFault
from repro.utils.rng import derive_rng

#: Cost-fault kinds accepted by :class:`FaultSpec`.
NAN_COST = "nan-cost"
INF_COST = "inf-cost"
NEGATIVE_COST = "negative-cost"
COST_EXCEPTION = "exception"
STALL = "stall"
FAULT_KINDS = (NAN_COST, INF_COST, NEGATIVE_COST, COST_EXCEPTION, STALL)


@dataclass(frozen=True)
class FaultSpec:
    """When and how one fault fires inside a :class:`FaultyCostModel`.

    Exactly one trigger should be set:

    ``at_evaluation``
        Fire on the Nth ``join_cost`` call (1-based), once.
    ``every``
        Fire on every ``every``-th call.
    ``probability``
        Fire on each call with this probability, drawn from the model's
        seeded stream (deterministic for a fixed seed and call sequence).
    """

    kind: str
    at_evaluation: int | None = None
    every: int | None = None
    probability: float = 0.0
    stall_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {FAULT_KINDS}"
            )
        triggers = (
            (self.at_evaluation is not None)
            + (self.every is not None)
            + (self.probability > 0)
        )
        if triggers != 1:
            raise ValueError(
                "exactly one of at_evaluation/every/probability must be set"
            )

    def fires(self, call_index: int, rng: random.Random) -> bool:
        if self.at_evaluation is not None:
            return call_index == self.at_evaluation
        if self.every is not None:
            return call_index % self.every == 0
        return rng.random() < self.probability


class FaultyCostModel(CostModel):
    """A cost model wrapper that injects faults into ``join_cost`` calls.

    The wrapper deliberately **bypasses** the finite-cost guard of
    :meth:`CostModel.plan_cost` (it re-implements the sum without the
    check), simulating a third-party model that does not use the guarded
    base implementation — precisely the misbehaving component the
    verification gate and the resilient guards must catch.

    The fault counter persists across calls, so a fault pinned to one
    evaluation fires once and later calls (the verification gate's
    re-price among them) see a healthy model.  Such call-dependent
    faults exist only in this double: the shipped models are pure
    (``test_costing_is_pure``).  ``stall_hook`` (default: no-op) is
    called with ``stall_seconds`` when a stall fires; pass a
    :class:`StallingClock`'s ``advance`` or ``time.sleep`` as desired.
    """

    name = "faulty"

    def __init__(
        self,
        inner: CostModel,
        faults: Iterable[FaultSpec],
        seed: int = 0,
        stall_hook: Callable[[float], None] | None = None,
    ) -> None:
        self.inner = inner
        self.faults = tuple(faults)
        self.calls = 0
        self.n_injected = 0
        self.stall_hook = stall_hook
        self._rng = derive_rng(seed, "fault-injection", inner.name)

    def join_cost(
        self, outer_size: float, inner_size: float, result_size: float
    ) -> float:
        self.calls += 1
        for fault in self.faults:
            if not fault.fires(self.calls, self._rng):
                continue
            self.n_injected += 1
            if fault.kind == NAN_COST:
                return float("nan")
            if fault.kind == INF_COST:
                return math.inf
            if fault.kind == NEGATIVE_COST:
                return -1.0
            if fault.kind == COST_EXCEPTION:
                raise InjectedFault(
                    f"injected cost-model exception at evaluation {self.calls}"
                )
            if fault.kind == STALL:
                if self.stall_hook is not None:
                    self.stall_hook(fault.stall_seconds)
                break  # stall, then price the join normally
        return self.inner.join_cost(outer_size, inner_size, result_size)

    def plan_cost(self, order: JoinOrder, graph: JoinGraph) -> float:
        # No finite-cost guard here, by design (see class docstring).
        context = QueryContext(graph, self)
        state = start_state(context, order[0])
        for position in range(1, len(order)):
            step(context, state, order[position])
        return state.cost

    def __repr__(self) -> str:
        return (
            f"FaultyCostModel({self.inner!r}, faults={len(self.faults)}, "
            f"calls={self.calls}, injected={self.n_injected})"
        )


class StallingClock:
    """A deterministic fake clock for :class:`WallClockBudget` tests.

    Each call advances the clock by ``tick`` seconds; scheduled ``jumps``
    (call index → extra seconds) model a machine stall at a precise point.
    ``advance`` can be used as a :class:`FaultyCostModel` stall hook.
    """

    def __init__(
        self,
        tick: float = 0.0,
        jumps: Mapping[int, float] | None = None,
    ) -> None:
        self.tick = tick
        self.jumps = dict(jumps or {})
        self.calls = 0
        self.now = 0.0

    def __call__(self) -> float:
        self.calls += 1
        self.now += self.tick + self.jumps.get(self.calls, 0.0)
        return self.now

    def advance(self, seconds: float) -> None:
        """Jump the clock forward (a stall just happened)."""
        self.now += seconds


class _TrippingEvaluator:
    """Evaluator proxy that raises after a fixed number of evaluations.

    The candidate protocol is proxied explicitly (not via ``__getattr__``)
    so delta-evaluated strategies trip at exactly the same evaluation
    count as full-cost ones — a forwarded bound method would bypass the
    trip check entirely.
    """

    def __init__(self, inner: Evaluator, fail_after: int) -> None:
        self._inner = inner
        self._fail_after = fail_after

    def _check_trip(self) -> None:
        if self._inner.n_evaluations >= self._fail_after:
            raise InjectedFault(
                f"injected strategy crash after {self._fail_after} evaluations"
            )

    def evaluate(self, order: JoinOrder) -> float:
        self._check_trip()
        return self._inner.evaluate(order)

    def evaluate_candidate(
        self,
        order: JoinOrder,
        upper_bound: float | None = None,
        first_changed: int | None = None,
    ) -> float | None:
        self._check_trip()
        return self._inner.evaluate_candidate(
            order, upper_bound=upper_bound, first_changed=first_changed
        )

    def commit_candidate(self, order: JoinOrder) -> None:
        self._inner.commit_candidate(order)

    def prime(self, order: JoinOrder) -> None:
        self._inner.prime(order)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class FaultyStrategy(Strategy):
    """Wrap any method so it crashes after ``fail_after`` evaluations.

    The best plan found *before* the crash remains recorded on the real
    evaluator — the resilient optimizer's "best valid plan so far"
    guarantee is exercised against exactly this wrapper.
    """

    def __init__(self, inner: Strategy | str, fail_after: int) -> None:
        self.inner = make_strategy(inner) if isinstance(inner, str) else inner
        self.fail_after = fail_after
        self.name = self.inner.name
        self.description = (
            f"{self.inner.name} crashing after {fail_after} evaluations"
        )

    def run(
        self, evaluator: Evaluator, rng: random.Random, params: MethodParams
    ) -> None:
        self.inner.run(_TrippingEvaluator(evaluator, self.fail_after), rng, params)
