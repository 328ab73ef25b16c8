"""Cost models: cardinality estimation and the two hash-join cost models.

The paper validates its results under two models: a main-memory model (its
[Swa89a]) and a disk-based model (similar to its [Bra84]).  Both are
implemented here behind the :class:`CostModel` interface.  Only the hash
join method is used, as in the paper.
"""

from repro.cost.base import CostModel, PlanCostDetail
from repro.cost.cardinality import (
    CostOverflowError,
    MAX_CARDINALITY,
    PlanEstimator,
    StepEstimate,
    clamp_cardinality,
    combined_selectivity,
    join_result_cardinality,
    prefix_cardinalities,
    walk_plan,
)
from repro.cost.incremental import (
    IncrementalEvaluator,
    QueryContext,
    supports_incremental,
)
from repro.cost.memory import MainMemoryCostModel
from repro.cost.disk import DiskCostModel
from repro.cost.bounds import lower_bound
from repro.cost.methods import (
    MultiMethodCostModel,
    NestedLoopCostModel,
    SortMergeCostModel,
)
from repro.cost.static import StaticCostModel

__all__ = [
    "CostModel",
    "CostOverflowError",
    "MAX_CARDINALITY",
    "clamp_cardinality",
    "PlanCostDetail",
    "PlanEstimator",
    "StepEstimate",
    "walk_plan",
    "IncrementalEvaluator",
    "QueryContext",
    "supports_incremental",
    "MainMemoryCostModel",
    "DiskCostModel",
    "NestedLoopCostModel",
    "SortMergeCostModel",
    "MultiMethodCostModel",
    "StaticCostModel",
    "combined_selectivity",
    "join_result_cardinality",
    "prefix_cardinalities",
    "lower_bound",
]
