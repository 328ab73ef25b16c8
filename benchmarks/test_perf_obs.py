"""Microbench: cost of the *disabled* observability hooks on the hot path.

The trace layer's performance contract (docs/observability.md) is that
the default no-op backend costs one attribute check per hook.  This
bench proves it: the same seeded greedy walk is replayed through the
shipped :class:`~repro.core.state.DeltaEvaluator` (whose hot methods
carry ``if self.tracer.enabled:`` guards) and through a guard-free
variant with otherwise identical bodies.  Min-of-R timing isolates the
guard from scheduler noise; the asserted ceiling is <2% overhead.

Every run writes ``results/BENCH_obs.json`` so the overhead is a
machine-readable series CI can diff per-PR.

Run directly, this module is the obs perf smoke check::

    PYTHONPATH=src python benchmarks/test_perf_obs.py --smoke [--json]
"""

import random
import time
from pathlib import Path

import pytest

from bench_utils import save_and_print, write_bench_json

from repro.core.budget import Budget
from repro.core.state import DeltaEvaluator
from repro.core.moves import MoveSet
from repro.cost.memory import MainMemoryCostModel
from repro.plans.validity import random_valid_order
from repro.workloads.benchmarks import DEFAULT_SPEC
from repro.workloads.generator import generate_query

#: The asserted ceiling on disabled-hook overhead (docs/observability.md).
MAX_DISABLED_OVERHEAD = 0.02

#: Repeats per mode; the minimum is reported (scheduler noise only ever
#: inflates a timing, so min-of-R converges on the true cost).
REPEATS = 7


class GuardFreeDeltaEvaluator(DeltaEvaluator):
    """The counterfactual baseline: the hot methods minus the obs guards.

    ``evaluate_candidate``/``evaluate`` are byte-for-byte the shipped
    bodies (see :class:`~repro.core.state.DeltaEvaluator`) with the
    ``if self.tracer.enabled:`` blocks deleted — what the engine looked
    like before instrumentation.  Any drift in the shipped bodies shows
    up here as a bogus overhead number, so keep the copies in sync.
    """

    def evaluate(self, order):
        self.budget.charge(float(self.graph.n_joins))
        cost, joins = self.engine.rebase(order.positions)
        self.n_joins_evaluated += joins
        self.n_evaluations += 1
        self._record(order, cost)
        self._check_target()
        return cost

    def evaluate_candidate(self, order, upper_bound=None, first_changed=None):
        self.budget.charge(float(self.graph.n_joins))
        cost, joins = self.engine.evaluate(
            order.positions, self._safe_bound(upper_bound), first_changed
        )
        self.n_joins_evaluated += joins
        self.n_evaluations += 1
        if cost is None:
            self.n_pruned += 1
        else:
            self._record(order, cost)
        self._check_target()
        return cost


def _prepare_walk(n_joins: int, n_moves: int, seed: int):
    """One seeded greedy walk, pre-generated so every mode replays it."""
    graph = generate_query(DEFAULT_SPEC, n_joins=n_joins, seed=seed).graph
    model = MainMemoryCostModel()
    move_set = MoveSet()
    rng = random.Random(seed)
    current = random_valid_order(graph, rng)
    cost = model.plan_cost(current, graph)
    steps = []  # (current, candidate, first_changed, incumbent_cost)
    for _ in range(n_moves):
        move, candidate = move_set.random_valid_move(current, graph, rng)
        steps.append((current, candidate, move.first_changed, cost))
        candidate_cost = model.plan_cost(candidate, graph)
        if candidate_cost < cost:
            current, cost = candidate, candidate_cost
    return graph, model, steps


def _time_walk(evaluator_cls, graph, model, steps) -> float:
    """Seconds for one replay of the walk through ``evaluator_cls``."""
    evaluator = evaluator_cls(graph, model, Budget(float("inf")))
    t0 = time.perf_counter()
    for current, candidate, first_changed, incumbent in steps:
        evaluator.prime(current)
        evaluator.evaluate_candidate(candidate, incumbent, first_changed)
    return time.perf_counter() - t0


def measure_obs_overhead(
    n_joins: int = 100, n_moves: int = 400, seed: int = 2026
) -> dict:
    """Min-of-R timings: shipped (disabled guards) vs guard-free engine."""
    graph, model, steps = _prepare_walk(n_joins, n_moves, seed)
    timings = {"instrumented": [], "baseline": []}
    # Interleave the modes so drift (thermal, other tenants) hits both.
    for _ in range(REPEATS):
        timings["baseline"].append(
            _time_walk(GuardFreeDeltaEvaluator, graph, model, steps)
        )
        timings["instrumented"].append(
            _time_walk(DeltaEvaluator, graph, model, steps)
        )
    best_base = min(timings["baseline"])
    best_inst = min(timings["instrumented"])
    overhead = best_inst / best_base - 1.0
    return {
        "benchmark": "obs-disabled-overhead",
        "n_joins": n_joins,
        "n_moves": n_moves,
        "seed": seed,
        "repeats": REPEATS,
        "seconds_baseline_min": round(best_base, 6),
        "seconds_instrumented_min": round(best_inst, 6),
        "overhead_fraction": round(overhead, 5),
        "ceiling": MAX_DISABLED_OVERHEAD,
    }


def _verify_equivalence(n_joins: int = 30, n_moves: int = 120) -> None:
    """The guard-free copy must still compute the identical walk."""
    graph, model, steps = _prepare_walk(n_joins, n_moves, seed=7)
    outputs = []
    for evaluator_cls in (DeltaEvaluator, GuardFreeDeltaEvaluator):
        evaluator = evaluator_cls(graph, model, Budget(float("inf")))
        costs = []
        for current, candidate, first_changed, incumbent in steps:
            evaluator.prime(current)
            costs.append(
                evaluator.evaluate_candidate(candidate, incumbent, first_changed)
            )
        outputs.append((costs, evaluator.n_joins_evaluated, evaluator.n_pruned))
    assert outputs[0] == outputs[1], (
        "guard-free baseline diverged from the shipped evaluator; "
        "its copied bodies have drifted — re-sync them with "
        "repro.core.state.DeltaEvaluator"
    )


@pytest.mark.slow
def test_disabled_tracer_overhead():
    _verify_equivalence()
    point = measure_obs_overhead()
    path = write_bench_json("obs", point)
    save_and_print(
        "obs_overhead",
        "Disabled-tracer overhead on the incremental hot path:\n"
        f"  baseline     (no guards): {point['seconds_baseline_min']:.4f}s\n"
        f"  instrumented (disabled) : {point['seconds_instrumented_min']:.4f}s\n"
        f"  overhead: {point['overhead_fraction'] * 100:.2f}% "
        f"(ceiling {MAX_DISABLED_OVERHEAD * 100:.0f}%)\n"
        f"machine-readable series: {path.name}",
    )
    assert point["overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"disabled observability hooks cost "
        f"{point['overhead_fraction'] * 100:.2f}% on the incremental hot "
        f"path; the contract (docs/observability.md) allows "
        f"{MAX_DISABLED_OVERHEAD * 100:.0f}%"
    )


def _smoke_main(argv: list[str] | None = None) -> int:
    """Reduced-size smoke: the overhead gate at a CI-friendly size."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Perf smoke check for the observability layer."
    )
    parser.add_argument("--smoke", action="store_true", help="run reduced bench")
    parser.add_argument("--n-joins", type=int, default=50)
    parser.add_argument("--n-moves", type=int, default=200)
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write results/BENCH_obs.json",
    )
    args = parser.parse_args(argv)
    if not args.smoke:
        parser.error("nothing to do: pass --smoke")
    _verify_equivalence()
    point = measure_obs_overhead(n_joins=args.n_joins, n_moves=args.n_moves)
    print(
        f"baseline {point['seconds_baseline_min']:.4f}s, "
        f"instrumented {point['seconds_instrumented_min']:.4f}s, "
        f"overhead {point['overhead_fraction'] * 100:.2f}%"
    )
    if args.json:
        path = write_bench_json("obs", point)
        print(f"wrote {path}")
    if point["overhead_fraction"] >= MAX_DISABLED_OVERHEAD:
        print("SMOKE FAIL: disabled-tracer overhead above ceiling")
        return 1
    print("SMOKE OK")
    return 0


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    raise SystemExit(_smoke_main())
