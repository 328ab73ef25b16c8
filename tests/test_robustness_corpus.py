"""Hostile input through ``optimize(resilient=True)``, with no test doubles.

A seeded slice of the hostile-input corpus: generated queries as
generated, with their largest relation at 1e300 rows (its distinct counts
scaled by the same factor), and with every third edge dropped, under both
models, seven methods, and budgets from too small for one evaluation up
to the paper's ``1 N^2``.  Every resilient run must raise
``NoValidPlanError`` or return a plan that verifies against the caller's
own graph within the caller's limit.  Where the plain run returns a plan,
the resilient run must return exactly that plan, not degraded.

Run the whole corpus (5 specs, N in {1, 2, 3, 5, 8, 12}, seeds 0 and 1,
seven forms, 16 methods, six budgets: 78,720 runs) and print its counts
with ``PYTHONPATH=src python tests/test_robustness_corpus.py``.  Add
``--dump FILE`` to also write one line per run, its key then the plain
and the resilient outcome, so two trees can be compared run for run
(see docs/testing.md).
"""

from __future__ import annotations

import argparse
import dataclasses
from collections import Counter
from contextlib import nullcontext

from repro.catalog.join_graph import JoinGraph
from repro.core.budget import Budget, BudgetExhausted
from repro.core.optimizer import optimize
from repro.cost.base import CostOverflowError
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.robustness import NoValidPlanError, verify_plan
from repro.workloads.benchmarks import benchmark_spec
from repro.workloads.generator import generate_query

MODELS = (MainMemoryCostModel(), DiskCostModel())


def scaled(graph: JoinGraph, factor: float, vertices) -> JoinGraph:
    """``graph`` with the rows and distinct counts of ``vertices`` scaled."""
    vertices = set(vertices)
    relations = [
        dataclasses.replace(
            relation, base_cardinality=relation.base_cardinality * factor
        )
        if index in vertices
        else relation
        for index, relation in enumerate(graph.relations)
    ]
    predicates = [
        dataclasses.replace(
            predicate,
            left_distinct=predicate.left_distinct
            * (factor if predicate.left in vertices else 1.0),
            right_distinct=predicate.right_distinct
            * (factor if predicate.right in vertices else 1.0),
        )
        for predicate in graph.predicates
    ]
    return JoinGraph(relations, predicates)


def largest_at(graph: JoinGraph, rows: float) -> JoinGraph:
    """The largest relation (lowest index on ties) at ``rows`` rows."""
    sizes = [relation.base_cardinality for relation in graph.relations]
    largest = sizes.index(max(sizes))
    return scaled(graph, rows / sizes[largest], [largest])


def every_third_edge_dropped(graph: JoinGraph) -> JoinGraph | None:
    """Edges 1, 4, 7, ... dropped; ``None`` when that drops none."""
    if len(graph.predicates) < 2:
        return None
    kept = [p for i, p in enumerate(graph.predicates) if i % 3 != 1]
    return JoinGraph(list(graph.relations), kept)


def forms(graph: JoinGraph, full: bool) -> dict[str, JoinGraph]:
    """The hostile forms of one generated graph."""
    result = {"as-generated": graph}
    for rows in (1e140, 1e200, 1e300) if full else (1e300,):
        result[f"largest-at-{rows:g}"] = largest_at(graph, rows)
    if full:
        everything = range(graph.n_relations)
        result["rows-x1e40"] = scaled(graph, 1e40, everything)
        result["rows-x1e75"] = scaled(graph, 1e75, everything)
    dropped = every_third_edge_dropped(graph)
    if dropped is not None:
        result["third-edge-dropped"] = dropped
    return result


def budgets(n_joins: int, full: bool) -> list[tuple[str, dict, float]]:
    """``(label, optimize kwargs, limit)`` for each budget of the corpus."""
    limits = (0.5, 1.0, n_joins - 0.5, n_joins, 1.5 * n_joins) if full else (
        0.5, n_joins - 0.5,
    )
    result = [
        (f"limit={limit:g}", {"budget": limit}, float(limit))
        for limit in limits
    ]
    paper = Budget.for_query(n_joins, 1.0).limit
    result.append(("time_factor=1", {"time_factor": 1.0}, paper))
    return result


def run(graph, method, model, seed, kwargs):
    """The plain and resilient outcomes of one corpus run.

    Each is the result, or the error the contract lets that run raise.
    """

    def call(resilient: bool):
        options = dict(kwargs)
        if "budget" in options:
            options["budget"] = Budget(limit=options["budget"])
        return optimize(
            graph, method=method, model=model, seed=seed,
            resilient=resilient, **options,
        )

    try:
        plain = call(False)
    except (BudgetExhausted, CostOverflowError) as exc:
        plain = exc
    try:
        resilient = call(True)
    except NoValidPlanError as exc:
        resilient = exc
    return plain, resilient


def describe(outcome) -> str:
    """One outcome as a line fragment, every float by its repr."""
    if isinstance(outcome, Exception):
        return repr((type(outcome).__name__, str(outcome)))
    return repr((
        outcome.method, tuple(outcome.order), outcome.cost,
        outcome.units_spent, outcome.n_evaluations, outcome.trajectory,
        outcome.degraded, outcome.failures,
    ))


def check(graph, model, limit, plain, resilient) -> list[str]:
    """Every way one run breaks the contract (empty when it holds)."""
    problems = []
    if not isinstance(resilient, Exception):
        if resilient.graph is not graph:
            problems.append("result carries another graph")
        report = verify_plan(resilient.order, resilient.cost, graph, model)
        if not report.ok:
            problems.append(f"unverified plan: {report.violations}")
        if resilient.units_spent > limit:
            problems.append(
                f"units {resilient.units_spent} above the limit {limit}"
            )
    if not isinstance(plain, Exception):
        fields = ("order", "cost", "units_spent", "n_evaluations", "trajectory")
        if isinstance(resilient, Exception):
            problems.append("resilient run lost the plain run's plan")
        else:
            for name in fields:
                if getattr(resilient, name) != getattr(plain, name):
                    problems.append(f"{name} differs from the plain run")
            if resilient.degraded:
                problems.append("clean run reported degraded")
    return problems


def corpus(full: bool):
    """Yield ``(key, graph, method, model, seed, kwargs, limit)``."""
    specs = (0, 3, 7, 8, 9) if full else (0, 3)
    sizes = (1, 2, 3, 5, 8, 12) if full else (1, 3, 8)
    seeds = (0, 1) if full else (0,)
    methods = (
        "II", "SA", "SAA", "SAK", "IAI", "IKI", "IAL", "AGI", "KBI",
        "AUG1", "AUG3", "KBZ3", "EXACT", "2PO", "RANDOM", "WALK",
    ) if full else ("II", "SA", "IAI", "AGI", "EXACT", "AUG1", "KBZ3")
    for spec in specs:
        for n_joins in sizes:
            for seed in seeds:
                query = generate_query(benchmark_spec(spec), n_joins, seed)
                for form, graph in forms(query.graph, full).items():
                    for model in MODELS:
                        for method in methods:
                            for label, kwargs, limit in budgets(n_joins, full):
                                key = (
                                    spec, n_joins, seed, form, model.name,
                                    method, label,
                                )
                                yield key, graph, method, model, seed, kwargs, limit


def test_hostile_slice_keeps_the_resilient_contract():
    failures = []
    n_runs = 0
    for key, graph, method, model, seed, kwargs, limit in corpus(full=False):
        plain, resilient = run(graph, method, model, seed, kwargs)
        n_runs += 1
        failures.extend(
            (key, problem)
            for problem in check(graph, model, limit, plain, resilient)
        )
    assert n_runs == 672
    assert failures == []


def main(argv=None) -> int:  # pragma: no cover - corpus script
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--dump", metavar="FILE",
        help="also write one line per run: key, plain and resilient outcome",
    )
    args = parser.parse_args(argv)
    sink = open(args.dump, "w", encoding="utf-8") if args.dump else nullcontext()
    counts: Counter = Counter()
    with sink as dump:
        for key, graph, method, model, seed, kwargs, limit in corpus(full=True):
            plain, resilient = run(graph, method, model, seed, kwargs)
            if dump is not None:
                dump.write(
                    f"{key!r}\t{describe(plain)}\t{describe(resilient)}\n"
                )
            problems = check(graph, model, limit, plain, resilient)
            counts["runs"] += 1
            counts["plain plan"] += not isinstance(plain, Exception)
            if isinstance(resilient, Exception):
                counts["NoValidPlanError"] += 1
            else:
                counts["resilient plan"] += 1
                counts["degraded"] += resilient.degraded
            counts["contract broken"] += bool(problems)
            for problem in problems:
                print(key, problem)
    for name, value in counts.items():
        print(f"{name}: {value:,}")
    return 1 if counts["contract broken"] else 0


if __name__ == "__main__":  # pragma: no cover - corpus script
    raise SystemExit(main())
