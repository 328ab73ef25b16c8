"""The paper's nine methods (§4.4) plus the pure-heuristic methods.

Every method is a :class:`Strategy` with a uniform ``run`` interface; all
funnel their cost evaluations through one :class:`~repro.core.state.Evaluator`
so the budget, the best solution, and the improvement trajectory are
accounted identically across methods.  The strategies:

==== =====================================================================
II   iterative improvement from random starts, best local minimum wins
SA   simulated annealing from a random start (re-annealed while budget
     remains, since a frozen anneal cannot use leftover time)
SAA  SA started from one augmentation-heuristic state
SAK  SA started from the KBZ heuristic's state
IAI  II started from the augmentation states, then from random states
IKI  II started from the KBZ per-root states, then from random states
IAL  II from augmentation states, then local improvement on the best
     local minimum, then II from random states with any leftover budget
AGI  augmentation states evaluated directly, then II from random states
KBI  KBZ states evaluated directly, then II from random states
==== =====================================================================

The pure heuristics (``AUG1``–``AUG5``, ``KBZ3``–``KBZ5``) exist for the
paper's Tables 1 and 2: they generate their finite state set and stop —
they cannot exploit additional time, which is the paper's stated reason
for combining them with II/SA in the first place.

Two further baselines come from the companion [SG88] study (the general
combinatorial techniques paper this one extends): ``RANDOM`` (random
sampling of valid orders) and ``WALK`` (a perturbation walk accepting
every move) — the methods II and SA were originally shown to beat.
"""

from __future__ import annotations

import itertools
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

from repro.core.annealing import AnnealingSchedule, simulated_annealing
from repro.core.augmentation import (
    AugmentationCriterion,
    DEFAULT_CRITERION,
    augmentation_orders,
)
from repro.core.budget import BudgetExhausted, DEFAULT_UNITS_PER_N2
from repro.core.iterative import improvement_run, multi_start_improvement
from repro.core.kbz import DEFAULT_WEIGHT, kbz_orders
from repro.core.local_improvement import best_strategy_for_budget, local_improve
from repro.core.moves import MoveSet, NoValidMove, move_validity
from repro.core.state import Evaluation, Evaluator
from repro.obs import events as obs_events
from repro.plans.join_order import JoinOrder
from repro.plans.validity import random_valid_order


@dataclass(frozen=True)
class MethodParams:
    """Shared tunables threaded into every strategy."""

    move_set: MoveSet = field(default_factory=MoveSet)
    patience: int | None = None
    schedule: AnnealingSchedule = field(default_factory=AnnealingSchedule)
    augmentation_criterion: AugmentationCriterion = DEFAULT_CRITERION
    kbz_weight: AugmentationCriterion = DEFAULT_WEIGHT
    local_improvement_max_passes: int | None = None

    def with_overrides(self, **overrides) -> "MethodParams":
        return replace(self, **overrides)


class Strategy(ABC):
    """A complete optimization method behind ``optimize()``."""

    name: str = "abstract"
    description: str = ""
    #: Whether the method's outcome depends on its random stream.  The
    #: resilient fallback chain retries stochastic methods with rotated
    #: derived seeds; deterministic (pure-heuristic) methods get a single
    #: retry, since re-running them with a new seed changes nothing.
    stochastic: bool = True

    @abstractmethod
    def run(
        self, evaluator: Evaluator, rng: random.Random, params: MethodParams
    ) -> None:
        """Consume the evaluator's budget; the evaluator keeps the best."""

    def _random_starts(
        self, evaluator: Evaluator, rng: random.Random
    ) -> Iterator[JoinOrder]:
        """The random state generator, as an infinite stream."""
        while True:
            yield random_valid_order(evaluator.graph, rng)


# ----------------------------------------------------------------------
# Simple techniques (Section 3, plus the SG88 baselines)
# ----------------------------------------------------------------------


class IterativeImprovementStrategy(Strategy):
    name = "II"
    description = "iterative improvement from random start states"

    def run(self, evaluator, rng, params):
        multi_start_improvement(
            self._random_starts(evaluator, rng),
            evaluator,
            params.move_set,
            rng,
            patience=params.patience,
        )


class RandomSamplingStrategy(Strategy):
    """SG88's weakest baseline: evaluate random valid orders, keep best."""

    name = "RANDOM"
    description = "random sampling of valid join orders (SG88 baseline)"

    def run(self, evaluator, rng, params):
        try:
            for start in self._random_starts(evaluator, rng):
                evaluator.evaluate(start)
        except BudgetExhausted:
            pass


class PerturbationWalkStrategy(Strategy):
    """SG88's random walk: accept every move, remember the best state."""

    name = "WALK"
    description = "perturbation walk accepting every move (SG88 baseline)"

    def run(self, evaluator, rng, params):
        graph = evaluator.graph
        try:
            current = random_valid_order(graph, rng)
            evaluator.evaluate(current)
            check = move_validity(current, graph)
            while True:
                try:
                    move, neighbor = params.move_set.random_valid_move(
                        current, graph, rng, check
                    )
                except NoValidMove:
                    current = random_valid_order(graph, rng)
                    evaluator.evaluate(current)
                    check = move_validity(current, graph)
                    continue
                evaluator.evaluate_candidate(
                    neighbor, first_changed=move.first_changed
                )
                evaluator.commit_candidate(neighbor)
                check = check.after(move, neighbor)
                current = neighbor
        except BudgetExhausted:
            pass


class SimulatedAnnealingStrategy(Strategy):
    name = "SA"
    description = "simulated annealing from a random start state"

    def _starts(self, evaluator, rng, params) -> Iterator[JoinOrder]:
        return self._random_starts(evaluator, rng)

    def run(self, evaluator, rng, params):
        tracer = evaluator.tracer
        try:
            for index, start in enumerate(self._starts(evaluator, rng, params)):
                if tracer.enabled:
                    tracer.emit(obs_events.RESTART, index=index)
                    tracer.metrics.inc("restarts")
                simulated_annealing(
                    start, evaluator, params.move_set, rng, params.schedule
                )
                if evaluator.budget.exhausted:
                    break
        except BudgetExhausted:
            pass


class SAAStrategy(SimulatedAnnealingStrategy):
    name = "SAA"
    description = "simulated annealing started from an augmentation state"

    def _starts(self, evaluator, rng, params):
        heuristic = augmentation_orders(
            evaluator.graph, params.augmentation_criterion, evaluator.budget
        )
        return itertools.chain(
            itertools.islice(heuristic, 1), self._random_starts(evaluator, rng)
        )


class SAKStrategy(SimulatedAnnealingStrategy):
    name = "SAK"
    description = "simulated annealing started from the KBZ state"

    def _starts(self, evaluator, rng, params):
        yield _best_kbz_state(evaluator, params).order
        yield from self._random_starts(evaluator, rng)


class TwoPhaseStrategy(Strategy):
    """Two-phase optimization (Ioannidis & Kang's 2PO, the successor of
    this line of work): spend most of the budget on multi-start II, then
    anneal from the best local minimum at a low initial temperature.

    Not one of the paper's nine methods — included as a demonstration of
    its closing claim that the framework lets *candidate* heuristics be
    compared against the recommended ones.
    """

    name = "2PO"
    description = "II phase, then low-temperature SA from the best minimum"
    ii_share = 0.7

    def run(self, evaluator, rng, params):
        tracer = evaluator.tracer
        ii_done = evaluator.budget.share_used(self.ii_share, 1.0)
        starts = itertools.chain(
            augmentation_orders(
                evaluator.graph, params.augmentation_criterion, evaluator.budget
            ),
            self._random_starts(evaluator, rng),
        )
        best: Evaluation | None = None
        if tracer.enabled:
            tracer.phase_start("ii_phase", share=self.ii_share)
        try:
            for start in starts:
                local = improvement_run(
                    start, evaluator, params.move_set, rng, patience=params.patience
                )
                if local is not None and (best is None or local.cost < best.cost):
                    best = local
                if ii_done():
                    break
        except BudgetExhausted:
            return
        finally:
            if tracer.enabled:
                tracer.phase_end("ii_phase")
        if best is None:
            return
        # Phase 2: a cool anneal around the best minimum.
        schedule = replace(params.schedule, initial_acceptance=0.05)
        if tracer.enabled:
            tracer.phase_start("anneal_phase")
        try:
            simulated_annealing(
                best.order, evaluator, params.move_set, rng, schedule
            )
        except BudgetExhausted:
            pass
        finally:
            if tracer.enabled:
                tracer.phase_end("anneal_phase")


# ----------------------------------------------------------------------
# Combinations with iterative improvement (Section 4.4)
# ----------------------------------------------------------------------


def _best_kbz_state(evaluator: Evaluator, params: MethodParams) -> Evaluation:
    """Run algorithms G + T fully; return the cheapest per-root order."""
    best: Evaluation | None = None
    for order in kbz_orders(evaluator.graph, params.kbz_weight, evaluator.budget):
        cost = evaluator.evaluate(order)
        if best is None or cost < best.cost:
            best = Evaluation(order, cost)
    assert best is not None
    return best


class IAIStrategy(Strategy):
    name = "IAI"
    description = "II started from augmentation states, then random states"

    def _heuristic_starts(self, evaluator, params) -> Iterator[JoinOrder]:
        return augmentation_orders(
            evaluator.graph, params.augmentation_criterion, evaluator.budget
        )

    def run(self, evaluator, rng, params):
        starts = itertools.chain(
            self._heuristic_starts(evaluator, params),
            self._random_starts(evaluator, rng),
        )
        multi_start_improvement(
            starts, evaluator, params.move_set, rng, patience=params.patience
        )


class IKIStrategy(IAIStrategy):
    name = "IKI"
    description = "II started from KBZ per-root states, then random states"

    def _heuristic_starts(self, evaluator, params):
        return kbz_orders(evaluator.graph, params.kbz_weight, evaluator.budget)


class IALStrategy(Strategy):
    name = "IAL"
    description = (
        "II from augmentation states, then local improvement on the best"
    )

    def run(self, evaluator, rng, params):
        graph = evaluator.graph
        tracer = evaluator.tracer
        best: Evaluation | None = None
        try:
            if tracer.enabled:
                tracer.phase_start("heuristic_ii")
            for start in augmentation_orders(
                graph, params.augmentation_criterion, evaluator.budget
            ):
                local = improvement_run(
                    start, evaluator, params.move_set, rng, patience=params.patience
                )
                if local is not None and (best is None or local.cost < best.cost):
                    best = local
            if tracer.enabled:
                tracer.phase_end("heuristic_ii")
            # Augmentation states exhausted: polish the best local minimum
            # with the strongest local-improvement pass that still fits.
            while best is not None:
                strategy = best_strategy_for_budget(
                    evaluator.budget.remaining, graph.n_relations
                )
                if strategy is None:
                    break
                improved = local_improve(
                    best,
                    evaluator,
                    *strategy,
                    max_passes=params.local_improvement_max_passes,
                )
                if improved.order == best.order:
                    break
                best = improved
            # Any leftover budget goes to II from random states.
            multi_start_improvement(
                self._random_starts(evaluator, rng),
                evaluator,
                params.move_set,
                rng,
                patience=params.patience,
            )
        except BudgetExhausted:
            pass


class AGIStrategy(Strategy):
    name = "AGI"
    description = "augmentation states evaluated directly, then II"

    def _heuristic_starts(self, evaluator, params) -> Iterator[JoinOrder]:
        return augmentation_orders(
            evaluator.graph, params.augmentation_criterion, evaluator.budget
        )

    def run(self, evaluator, rng, params):
        tracer = evaluator.tracer
        if tracer.enabled:
            tracer.phase_start("heuristic_seed")
        try:
            for order in self._heuristic_starts(evaluator, params):
                evaluator.evaluate(order)
        except BudgetExhausted:
            return
        finally:
            if tracer.enabled:
                tracer.phase_end("heuristic_seed")
        multi_start_improvement(
            self._random_starts(evaluator, rng),
            evaluator,
            params.move_set,
            rng,
            patience=params.patience,
        )


class KBIStrategy(AGIStrategy):
    name = "KBI"
    description = "KBZ states evaluated directly, then II"

    def _heuristic_starts(self, evaluator, params):
        return kbz_orders(evaluator.graph, params.kbz_weight, evaluator.budget)


# ----------------------------------------------------------------------
# Pure heuristics (for Tables 1 and 2)
# ----------------------------------------------------------------------


class PureAugmentationStrategy(Strategy):
    """Generate and evaluate the augmentation states, then stop."""

    stochastic = False

    def __init__(self, criterion: AugmentationCriterion) -> None:
        self.criterion = criterion
        self.name = f"AUG{int(criterion)}"
        self.description = (
            f"augmentation heuristic alone, chooseNext criterion {int(criterion)}"
        )

    def run(self, evaluator, rng, params):
        try:
            for order in augmentation_orders(
                evaluator.graph, self.criterion, evaluator.budget
            ):
                evaluator.evaluate(order)
        except BudgetExhausted:
            pass


class PureKBZStrategy(Strategy):
    """Generate and evaluate the KBZ per-root states, then stop."""

    stochastic = False

    def __init__(self, weight: AugmentationCriterion) -> None:
        self.weight = weight
        self.name = f"KBZ{int(weight)}"
        self.description = (
            f"KBZ heuristic alone, spanning-tree weight criterion {int(weight)}"
        )

    def run(self, evaluator, rng, params):
        try:
            for order in kbz_orders(evaluator.graph, self.weight, evaluator.budget):
                evaluator.evaluate(order)
        except BudgetExhausted:
            pass


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_FACTORIES: dict[str, Callable[[], Strategy]] = {
    "II": IterativeImprovementStrategy,
    "RANDOM": RandomSamplingStrategy,
    "WALK": PerturbationWalkStrategy,
    "SA": SimulatedAnnealingStrategy,
    "SAA": SAAStrategy,
    "SAK": SAKStrategy,
    "IAI": IAIStrategy,
    "IKI": IKIStrategy,
    "IAL": IALStrategy,
    "AGI": AGIStrategy,
    "KBI": KBIStrategy,
    "2PO": TwoPhaseStrategy,
}
for _criterion in AugmentationCriterion:
    _FACTORIES[f"AUG{int(_criterion)}"] = (
        lambda c=_criterion: PureAugmentationStrategy(c)
    )
for _weight in (3, 4, 5):
    _FACTORIES[f"KBZ{_weight}"] = (
        lambda w=_weight: PureKBZStrategy(AugmentationCriterion(w))
    )
_FACTORIES["AUG"] = _FACTORIES["AUG3"]
_FACTORIES["KBZ"] = _FACTORIES["KBZ3"]


def _exact_factory() -> Strategy:
    # Imported lazily: repro.core.exact inherits Strategy from here.
    from repro.core.exact import ExactStrategy

    return ExactStrategy()


_FACTORIES["EXACT"] = _exact_factory

#: The nine methods of the paper's Figure 4, in its presentation order.
PAPER_METHODS = ("II", "SA", "SAA", "SAK", "IAI", "IKI", "IAL", "AGI", "KBI")

#: The top five the paper keeps after Figure 4.
TOP_FIVE_METHODS = ("IAI", "IAL", "AGI", "KBI", "II")


def available_method_names() -> list[str]:
    """Every method name accepted by :func:`make_strategy`."""
    return sorted(_FACTORIES)


def compare_methods(
    query,
    methods=PAPER_METHODS,
    *,
    model=None,
    time_factor: float = 9.0,
    units_per_n2: float = DEFAULT_UNITS_PER_N2,
    seed: int = 0,
    params: MethodParams | None = None,
    workers: int | None = None,
    stop_at_bound: bool = False,
    bound_tolerance: float = 1.05,
    failure_log=None,
):
    """Run several methods on one query; results keyed by method name.

    This is the multi-method comparison behind the paper's Figures 4–7
    and the CLI ``compare`` command.  With ``workers`` set, the methods
    run concurrently through :func:`repro.parallel.map_jobs` — each
    method is an independent ``optimize()`` call with its own budget and
    the *same* seed as the serial path, so the returned mapping is
    bit-identical for every worker count.  A worker crash is logged to
    ``failure_log`` (when given) and the method re-run serially.

    A method whose budget expires before any plan is evaluated raises
    :class:`~repro.core.budget.BudgetExhausted`, exactly as the serial
    loop would.
    """
    # Imported lazily: the optimizer module imports this one.
    from repro.core.optimizer import optimize

    methods = list(methods)
    if workers is None or workers <= 1 or len(methods) <= 1:
        return {
            name: optimize(
                query,
                method=name,
                model=model,
                time_factor=time_factor,
                units_per_n2=units_per_n2,
                seed=seed,
                params=params,
                stop_at_bound=stop_at_bound,
                bound_tolerance=bound_tolerance,
            )
            for name in methods
        }

    from repro.catalog.join_graph import Query as _Query
    from repro.cost.memory import MainMemoryCostModel
    from repro.parallel.orchestrator import OptimizeJob, map_jobs

    graph = query.graph if isinstance(query, _Query) else query
    jobs = [
        OptimizeJob(
            graph=graph,
            method=name,
            model=model if model is not None else MainMemoryCostModel(),
            seed=seed,
            index=index,
            tag=str(name),
            time_factor=time_factor,
            units_per_n2=units_per_n2,
            params=params,
            stop_at_bound=stop_at_bound,
            bound_tolerance=bound_tolerance,
        )
        for index, name in enumerate(methods)
    ]
    outcomes = map_jobs(jobs, workers, failure_log=failure_log)
    results = {}
    for name, outcome in zip(methods, outcomes):
        if outcome.result is None:
            raise BudgetExhausted(
                f"method {name}: {outcome.error or 'no plan evaluated'}"
            )
        # The worker's result carries a pickled copy of the graph; swap
        # the parent's object back in so the mapping compares equal to
        # the serial path's (JoinGraph has identity semantics).
        results[name] = replace(outcome.result, graph=graph)
    return results


def make_strategy(name: str | Strategy) -> Strategy:
    """Instantiate a strategy by its method name (case-insensitive).

    A :class:`Strategy` instance is passed through unchanged, which lets
    tests and the fault-injection harness drive wrapped or custom
    strategies through ``optimize()`` without registering them.
    """
    if isinstance(name, Strategy):
        return name
    try:
        factory = _FACTORIES[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown method {name!r}; available: {available_method_names()}"
        ) from None
    return factory()
