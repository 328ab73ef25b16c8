"""repro — reproduction of Swami's "Optimization of Large Join Queries".

Heuristics (augmentation, KBZ, local improvement) and combinatorial
techniques (iterative improvement, simulated annealing) for ordering
queries with 10–100 joins, with the paper's synthetic benchmarks and the
full experiment harness for its tables and figures.

Quickstart
----------
>>> from repro import generate_query, optimize, DEFAULT_SPEC
>>> query = generate_query(DEFAULT_SPEC, n_joins=12, seed=7)
>>> result = optimize(query, method="IAI", seed=1)
>>> result.cost > 0
True
"""

from repro.catalog import (
    JoinGraph,
    JoinPredicate,
    Query,
    QueryBuilder,
    Relation,
    load_benchmark,
    load_query,
    save_benchmark,
    save_query,
)
from repro.core import (
    AugmentationCriterion,
    Budget,
    BudgetExhausted,
    OptimizationResult,
    available_methods,
    optimize,
)
from repro.core.exact import exact_optimum
from repro.cost import DiskCostModel, MainMemoryCostModel, StaticCostModel
from repro.frontend import ColumnStats, StatsCatalog, parse_query
from repro.plans import JoinOrder, JoinTree, build_join_tree, is_valid_order
from repro.workloads import (
    DEFAULT_SPEC,
    WorkloadSpec,
    benchmark_spec,
    generate_benchmark,
    generate_query,
)

__version__ = "1.0.0"

__all__ = [
    "Relation",
    "JoinPredicate",
    "JoinGraph",
    "Query",
    "QueryBuilder",
    "JoinOrder",
    "JoinTree",
    "build_join_tree",
    "is_valid_order",
    "MainMemoryCostModel",
    "DiskCostModel",
    "StaticCostModel",
    "exact_optimum",
    "ColumnStats",
    "StatsCatalog",
    "parse_query",
    "load_benchmark",
    "load_query",
    "save_benchmark",
    "save_query",
    "Budget",
    "BudgetExhausted",
    "AugmentationCriterion",
    "OptimizationResult",
    "available_methods",
    "optimize",
    "WorkloadSpec",
    "DEFAULT_SPEC",
    "benchmark_spec",
    "generate_benchmark",
    "generate_query",
    "__version__",
]
