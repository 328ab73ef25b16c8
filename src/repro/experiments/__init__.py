"""Experiment harness reproducing the paper's evaluation (§6).

* :mod:`repro.experiments.scaling` — the scaled-cost methodology (§6.1):
  scale by the best cost at the largest time limit, coerce outliers to 10.
* :mod:`repro.experiments.runner` — run methods × queries × time limits.
* :mod:`repro.experiments.tables` — Tables 1, 2, and 3.
* :mod:`repro.experiments.figures` — Figures 4, 5, 6, and 7.
* :mod:`repro.experiments.report` — plain-text rendering of results.
"""

from repro.experiments.scaling import OUTLIER_CAP, coerce_outlier, scale_costs
from repro.experiments.runner import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
)
from repro.experiments.tables import table1, table2, table3
from repro.experiments.figures import figure4, figure5, figure6, figure7
from repro.experiments.convergence import ConvergenceCurve, convergence_curves
from repro.experiments.landscape import (
    local_minima_census,
    sample_cost_distribution,
    summarize,
)
from repro.experiments.sensitivity import (
    SensitivityPoint,
    perturb_graph,
    sensitivity_analysis,
)
from repro.experiments.statistics import (
    mean_confidence_interval,
    paired_comparison,
)
from repro.experiments.report import render_matrix, render_series

__all__ = [
    "OUTLIER_CAP",
    "coerce_outlier",
    "scale_costs",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "table1",
    "table2",
    "table3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "local_minima_census",
    "sample_cost_distribution",
    "summarize",
    "ConvergenceCurve",
    "convergence_curves",
    "SensitivityPoint",
    "perturb_graph",
    "sensitivity_analysis",
    "mean_confidence_interval",
    "paired_comparison",
    "render_matrix",
    "render_series",
]
