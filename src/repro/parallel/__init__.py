"""Process-pool parallel search with deterministic, serial-identical merges.

Public surface:

* :func:`~repro.parallel.orchestrator.multi_start_optimize` — the
  multi-start orchestrator behind ``optimize(..., workers=N)``.
* :func:`~repro.parallel.orchestrator.map_jobs` /
  :class:`~repro.parallel.orchestrator.OptimizeJob` — the generic
  fan-out used by the method-comparison and experiment paths.
"""

from repro.parallel.orchestrator import (
    DEFAULT_RESTARTS,
    JobOutcome,
    OptimizeJob,
    ParallelReport,
    map_jobs,
    multi_start_optimize,
    run_job,
)

__all__ = [
    "DEFAULT_RESTARTS",
    "JobOutcome",
    "OptimizeJob",
    "ParallelReport",
    "map_jobs",
    "multi_start_optimize",
    "run_job",
]
