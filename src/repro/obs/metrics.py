"""The metrics registry: named counters.

Metrics aggregate what events enumerate: the trace answers "what
happened, in order", the registry answers "how much, in total".  Both
are deterministic — a counter is only ever incremented by logical
quantities (evaluation counts, join steps, moves), never by wall time,
so two runs of the same seed snapshot identical registries.

Catalog of the counters the instrumented stack increments (see
``docs/observability.md`` for the full table): ``evaluations`` (plans
priced), ``joins_walked`` (join-cost steps actually computed),
``joins_charged`` (steps the budget paid for), ``pruned`` (candidates
abandoned by the upper bound), ``best_updates``, ``moves_accepted`` /
``moves_rejected`` / ``moves_pruned``, ``sa_chains``, ``restarts``,
``bounds_published``, ``faults``, ``degraded_runs`` and the exact
search's four ``exact_*`` search counters.

Per-run values (final cost, budget, units per restart, acceptance per
SA plateau) are not counters: the ``run_start``, ``run_end``,
``restart`` and ``chain`` events carry them, and ``repro.obs profile``
folds them.  Derived ratios (prune rate, acceptance ratio) are computed
by readers from the counters, so the hot path only ever increments.
"""

from __future__ import annotations

from typing import Any, Mapping


class Metrics:
    """A deterministic registry of named counters.

    Registration is implicit (first touch creates the counter);
    snapshots sort every name, so the serialized form never depends on
    touch order.  ``merge`` adds another registry's counters in; the
    orchestrator merges restarts in restart-index order.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def merge(self, other: "Metrics") -> None:
        for name in sorted(other.counters):
            self.inc(name, other.counters[name])

    def snapshot(self) -> dict[str, Any]:
        """A JSON-safe snapshot with sorted, stable key order."""
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            }
        }

    @classmethod
    def from_snapshot(cls, snapshot: Mapping[str, Any]) -> "Metrics":
        """Rebuild a registry from :meth:`snapshot`'s output.

        Used to fold pool-worker snapshots (which cross a process
        boundary as JSON-safe dicts) back into the parent registry.
        """
        metrics = cls()
        for name, value in sorted(dict(snapshot.get("counters", {})).items()):
            metrics.counters[name] = float(value)
        return metrics
