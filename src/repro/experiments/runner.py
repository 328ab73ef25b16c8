"""Run methods × queries × time limits and aggregate scaled costs.

Each (query, method, replicate) triple is optimized **once**, at the
largest time limit; the improvement trajectory then yields the best-known
cost at every smaller limit for free — the paper's sweep structure.  Costs
are scaled per query by the best cost any compared method achieved at the
largest limit, outliers are coerced to 10, and the scaled costs are
averaged over replicates and queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.catalog.join_graph import Query
from repro.core.budget import BudgetExhausted, DEFAULT_UNITS_PER_N2
from repro.cost.base import CostModel
from repro.cost.memory import MainMemoryCostModel
from repro.experiments.scaling import OUTLIER_CAP, coerce_outlier
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one experimental comparison."""

    methods: tuple[str, ...]
    time_factors: tuple[float, ...] = (1.5, 3.0, 6.0, 9.0)
    model: CostModel = field(default_factory=MainMemoryCostModel)
    units_per_n2: float = DEFAULT_UNITS_PER_N2
    replicates: int = 2
    seed: int = 0
    reference_methods: tuple[str, ...] = ()
    """Methods run only to establish the per-query scaling base (they do
    not appear in the output).  Tables 1 and 2 use this so that pure
    heuristics are scaled against a near-optimal baseline, matching the
    paper's scaled-cost magnitudes."""
    outlier_cap: float = OUTLIER_CAP
    """Scaled costs at or above this value are coerced to it (§6.1's
    trimming rule; 10 in the paper).  Set to ``math.inf`` to ablate the
    rule and see raw means."""
    exact_gap: bool = False
    """Also anchor every feasible query to its exact optimum
    (:func:`repro.core.exact.exact_optimum`) and report mean optimality
    gaps — *true cost / exact optimum* — next to the scaled costs."""
    exact_max_relations: int = 12
    """Feasibility ceiling for the per-query exact pass; queries with
    more relations are skipped by the gap aggregation (scaled costs are
    unaffected)."""

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("at least one method is required")
        if not self.time_factors:
            raise ValueError("at least one time factor is required")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")

    @property
    def max_factor(self) -> float:
        return max(self.time_factors)

    @property
    def all_methods(self) -> tuple[str, ...]:
        extra = tuple(m for m in self.reference_methods if m not in self.methods)
        return self.methods + extra


@dataclass
class ExperimentResult:
    """Mean scaled costs: ``result.mean_scaled[method][factor]``.

    ``per_query_scaled`` keeps the underlying per-query values (averaged
    over replicates, queries in benchmark order) so methods can be
    compared *paired*, per the SG88 statistical methodology.
    """

    config: ExperimentConfig
    n_queries: int
    mean_scaled: dict[str, dict[float, float]]
    outlier_counts: dict[str, dict[float, int]]
    per_query_scaled: dict[str, dict[float, list[float]]]
    mean_gap: dict[str, float] = field(default_factory=dict)
    """Mean optimality gap per method over the gap-feasible queries
    (replicates averaged; empty unless ``config.exact_gap``)."""
    per_query_gap: dict[str, list[float]] = field(default_factory=dict)
    """Per-method gap series over the gap-feasible queries, in benchmark
    order — the paired-comparison counterpart of ``per_query_scaled``."""
    gap_feasible_queries: int = 0
    """How many queries were small enough for the exact pass."""

    def series(self, method: str) -> list[tuple[float, float]]:
        """The (time factor, mean scaled cost) series for one method."""
        by_factor = self.mean_scaled[method]
        return sorted(by_factor.items())

    def at(self, method: str, factor: float) -> float:
        return self.mean_scaled[method][factor]

    def ranking(self, factor: float) -> list[str]:
        """Methods ordered best-first at one time factor."""
        return sorted(
            self.mean_scaled, key=lambda method: self.mean_scaled[method][factor]
        )

    def confidence_interval(self, method: str, factor: float, confidence=0.95):
        """t-interval for the mean scaled cost of one method."""
        from repro.experiments.statistics import mean_confidence_interval

        return mean_confidence_interval(
            self.per_query_scaled[method][factor], confidence
        )

    def compare(self, method_a: str, method_b: str, factor: float, confidence=0.95):
        """Paired comparison of two methods at one time factor."""
        from repro.experiments.statistics import paired_comparison

        return paired_comparison(
            method_a,
            self.per_query_scaled[method_a][factor],
            method_b,
            self.per_query_scaled[method_b][factor],
            confidence,
        )


def _units_for(query: Query, factor: float, units_per_n2: float) -> float:
    n = max(1, query.n_joins)
    return factor * n * n * units_per_n2


def _all_runs(
    queries: list[Query],
    config: ExperimentConfig,
    workers: int | None,
    failure_log=None,
) -> list[dict[str, list]]:
    """One trajectory-carrying run per (query, method, replicate).

    Every trial is an independent ``optimize()`` call seeded by
    ``derive_seed(config.seed, query.name, method, replicate)``, run
    through :func:`repro.parallel.map_jobs`: inline for one worker (the
    default), across a process pool for more — same seeds, same budgets,
    so the aggregate is bit-identical for every worker count.  A crashed
    worker is logged to ``failure_log`` (when given) and its trial re-run
    serially.
    """
    from repro.parallel.orchestrator import OptimizeJob, map_jobs

    methods = config.all_methods
    triples = [
        (query, method, replicate)
        for query in queries
        for method in methods
        for replicate in range(config.replicates)
    ]
    jobs = [
        OptimizeJob(
            graph=query.graph,
            method=method,
            model=config.model,
            seed=derive_seed(config.seed, query.name, method, replicate),
            index=index,
            tag=f"{query.name}/{method}/r{replicate}",
            time_factor=config.max_factor,
            units_per_n2=config.units_per_n2,
        )
        for index, (query, method, replicate) in enumerate(triples)
    ]
    outcomes = map_jobs(jobs, workers or 1, failure_log=failure_log)
    results = []
    for (query, _method, _replicate), outcome in zip(triples, outcomes):
        if outcome.result is None:
            raise BudgetExhausted(outcome.error)
        # Swap the parent's graph object back in (a pool worker's copy
        # came through pickle; JoinGraph has identity semantics) so trial
        # results compare equal whatever ran them.
        results.append(replace(outcome.result, graph=query.graph))
    per_trial = iter(results)
    all_runs: list[dict[str, list]] = []
    for query in queries:
        runs: dict[str, list] = {method: [] for method in methods}
        for method in methods:
            for _replicate in range(config.replicates):
                runs[method].append(next(per_trial))
        all_runs.append(runs)
    return all_runs


def run_experiment(
    queries: list[Query],
    config: ExperimentConfig,
    progress=None,
    workers: int | None = None,
    failure_log=None,
) -> ExperimentResult:
    """Execute the comparison and aggregate the scaled costs.

    ``progress`` is an optional callable ``(done, total)`` invoked after
    each optimized query, for long runs.  ``workers`` fans the
    (query, method, replicate) trials across a process pool; the
    aggregated result is bit-identical to the serial run (see
    :mod:`repro.parallel`).  ``failure_log`` collects worker-crash
    records when parallel execution has to fall back serially.
    """
    accumulator: dict[str, dict[float, list[float]]] = {
        method: {factor: [] for factor in config.time_factors}
        for method in config.methods
    }
    outliers: dict[str, dict[float, int]] = {
        method: {factor: 0 for factor in config.time_factors}
        for method in config.methods
    }
    gap_accumulator: dict[str, list[float]] = {
        method: [] for method in config.methods
    }
    gap_feasible = 0
    all_runs = _all_runs(queries, config, workers, failure_log=failure_log)
    for done, (query, runs) in enumerate(zip(queries, all_runs), start=1):
        if (
            config.exact_gap
            and query.graph.n_relations <= config.exact_max_relations
        ):
            # The exact pass runs once, in the parent process, so gap
            # aggregates inherit the sweep's workers-invariance.
            from repro.core.exact import exact_optimum, optimality_gap

            exact = exact_optimum(
                query.graph,
                config.model,
                max_relations=config.exact_max_relations,
                seed=config.seed,
            )
            gap_feasible += 1
            for method in config.methods:
                gaps = [
                    optimality_gap(result.cost, exact.cost)
                    for result in runs[method]
                ]
                gap_accumulator[method].append(sum(gaps) / len(gaps))
        # Per-query scaling base: best final cost over ALL methods/replicates.
        best = min(
            result.cost for results in runs.values() for result in results
        )
        for method in config.methods:
            for factor in config.time_factors:
                units = _units_for(query, factor, config.units_per_n2)
                scaled_replicates = []
                for result in runs[method]:
                    cost = result.best_cost_within(units)
                    scaled = math.inf if cost is None else cost / best
                    if scaled >= OUTLIER_CAP:
                        outliers[method][factor] += 1
                    scaled_replicates.append(
                        coerce_outlier(scaled, config.outlier_cap)
                    )
                accumulator[method][factor].append(
                    sum(scaled_replicates) / len(scaled_replicates)
                )
        if progress is not None:
            progress(done, len(queries))

    mean_scaled = {
        method: {
            factor: sum(values) / len(values)
            for factor, values in by_factor.items()
        }
        for method, by_factor in accumulator.items()
    }
    mean_gap = {
        method: sum(values) / len(values)
        for method, values in gap_accumulator.items()
        if values
    }
    return ExperimentResult(
        config=config,
        n_queries=len(queries),
        mean_scaled=mean_scaled,
        outlier_counts=outliers,
        per_query_scaled=accumulator,
        mean_gap=mean_gap,
        per_query_gap={
            method: values
            for method, values in gap_accumulator.items()
            if values
        },
        gap_feasible_queries=gap_feasible,
    )
