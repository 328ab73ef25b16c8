#!/usr/bin/env python3
"""How far from the true optimum do the heuristics land?

For queries small enough (N ≈ 10) the branch-and-bound proves the exact
optimum under the main-memory model, the model every method searches.
This example measures each method's optimality gap against it —
something the paper could not report for its large queries (which is
precisely why it scales costs by the best *known* solution instead).

Run:  python examples/optimality_gap.py
"""

import math

from repro import DEFAULT_SPEC, MainMemoryCostModel, exact_optimum, generate_query
from repro.core.optimizer import optimize

METHODS = ("IAI", "AGI", "II", "SA", "AUG3", "KBZ3")
N_JOINS = 10
N_QUERIES = 5


def main() -> None:
    model = MainMemoryCostModel()

    gaps: dict[str, list[float]] = {method: [] for method in METHODS}
    exact_work = []
    for index in range(N_QUERIES):
        query = generate_query(DEFAULT_SPEC, n_joins=N_JOINS, seed=100 + index)
        exact = exact_optimum(query.graph, model)
        exact_work.append(exact.n_cost_evaluations)
        for method in METHODS:
            result = optimize(
                query, method=method, model=model, time_factor=9.0, seed=1
            )
            gaps[method].append(result.cost / exact.cost)

    print(f"Optimality gaps over {N_QUERIES} queries with N = {N_JOINS}")
    print(
        f"(proven optimum by branch-and-bound; "
        f"~{sum(exact_work) // len(exact_work):,} join-cost"
    )
    print(f" evaluations per query, of {N_JOINS + 1}! = "
          f"{math.factorial(N_JOINS + 1):,} permutations)")
    print()
    print("method    mean gap    worst gap")
    print("-" * 34)
    for method in METHODS:
        values = gaps[method]
        mean = sum(values) / len(values)
        print(f"{method:8s} {mean:9.3f}x {max(values):11.3f}x")
    print()
    print(
        "At N = 10, II, IAI and AGI sit within a fraction of a percent of\n"
        "the true optimum at the 9N^2 limit; SA trails, and the bare\n"
        "heuristics land about twice as high.  The paper's scaled costs\n"
        "are relative to the best *found*, not the optimum."
    )


if __name__ == "__main__":
    main()
