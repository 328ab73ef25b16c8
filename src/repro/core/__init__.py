"""Core optimization algorithms: the paper's contribution.

* :mod:`repro.core.budget` — the deterministic optimization clock.
* :mod:`repro.core.moves` — the SG88 move set over valid join orders.
* :mod:`repro.core.iterative` — iterative improvement (Figure 1).
* :mod:`repro.core.annealing` — simulated annealing (Figure 2).
* :mod:`repro.core.augmentation` — the augmentation heuristic (§4.1).
* :mod:`repro.core.kbz` — the KBZ heuristic: algorithms R, T, G (§4.2).
* :mod:`repro.core.local_improvement` — cluster-wise improvement (§4.3).
* :mod:`repro.core.combinations` — II, SA, SAA, SAK, IAI, IKI, IAL, AGI,
  KBI (§4.4) and the pure-heuristic methods used by Tables 1 and 2.
* :mod:`repro.core.optimizer` — the public ``optimize()`` entry point.
"""

from repro.core.budget import Budget, BudgetExhausted, WallClockBudget
from repro.core.moves import Move, MoveSet, NoValidMove
from repro.core.state import DeltaEvaluator, Evaluation, Evaluator, TargetReached
from repro.core.augmentation import AugmentationCriterion
from repro.core.bushy_search import bushy_iterative_improvement
from repro.core.optimizer import OptimizationResult, available_methods, optimize

__all__ = [
    "Budget",
    "BudgetExhausted",
    "WallClockBudget",
    "TargetReached",
    "Move",
    "MoveSet",
    "NoValidMove",
    "Evaluation",
    "Evaluator",
    "DeltaEvaluator",
    "AugmentationCriterion",
    "bushy_iterative_improvement",
    "OptimizationResult",
    "available_methods",
    "optimize",
]
