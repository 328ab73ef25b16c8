"""Closed-loop client: one fresh process, one workload, one pass.

``run.py`` starts this script once per pass; each pass is a new
interpreter, so imports, input loading and warm-up are paid the way a
user pays them.  One client sends the next query only after the previous
one returned (a closed loop), and calls only the public library API with
default flags.

Modes:

``setup``
    Import, load the inputs, warm up, stop.  Gives one ``setup_s`` sample.
``timed``
    ``setup``, then time every round of the queries untraced, checking
    each plan between queries, off the clock.
``traced``
    ``setup``, then run each distinct query once with
    ``trace=WallClockTracer()`` and time each public call from outside as
    a span (name, start, end, parent, query id).  Spans are kept in
    memory and written out at the end.  On ``multistart-sa-2w`` each
    query also runs its untraced ``workers=1`` twin, which must return an
    equal result.

The result is one JSON file (``--out``) that ``run.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: multistart-sa-2w fans SA's restarts over two pool workers: ``nproc``
#: of a 2-core box.
WORKERS = 2
RESTARTS = 8


class Spans:
    """In-memory spans around the benchmark's calls into the program."""

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.totals: dict[str, float] = {}
        self._stack: list[int] = []

    def run(self, name: str, query: int, call, *args, **kwargs):
        """``call(*args, **kwargs)`` inside a span named ``name``."""
        span_id = len(self.rows)
        parent = self._stack[-1] if self._stack else None
        self.rows.append(None)
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows[span_id] = (span_id, name, start, end, parent, query)
            self.totals[name] = self.totals.get(name, 0.0) + (end - start)

    def last(self, name: str) -> float:
        """Duration of the most recent span named ``name``."""
        for row in reversed(self.rows):
            if row is not None and row[1] == name:
                return row[3] - row[2]
        raise KeyError(name)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "query")
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(dict(zip(keys, row))) + "\n")


class Workload:
    """Loads one workload's inputs and plans its queries."""

    def __init__(self, name: str, inputs: Path) -> None:
        self.name = name
        self.inputs = inputs
        self.load_s = 0.0

    def import_program(self) -> None:
        import repro  # noqa: F401  the package and everything it re-exports
        import repro.robustness.verify  # noqa: F401  optimize's verify gate

        if self.name == "multistart-sa-2w":
            import repro.parallel  # noqa: F401  the pool orchestrator

    def load(self) -> None:
        """Read the inputs through the program's own loaders."""
        if self.name == "sql-small":
            from repro import StatsCatalog

            start = time.perf_counter()
            self.catalog = StatsCatalog.from_json(self.inputs / "catalog.json")
            self.load_s = time.perf_counter() - start
            self.queries = read_sql(self.inputs / "queries.sql")
            self.warmup = read_sql(self.inputs / "warmup.sql")
        else:
            from repro import load_benchmark

            start = time.perf_counter()
            self.queries = load_benchmark(self.inputs / "corpus.json")
            self.load_s = time.perf_counter() - start
            self.warmup = load_benchmark(self.inputs / "warmup.json")
        manifest = json.loads((self.inputs / "manifest.json").read_text())
        self.rounds = manifest["rounds"]
        self.anchors = set(manifest["anchors"])

    def model(self):
        from repro import DiskCostModel, MainMemoryCostModel

        if self.name == "multistart-sa-2w":
            return DiskCostModel()
        return MainMemoryCostModel()

    def plan(self, item, workers: int = WORKERS):
        """One query from input to verified plan; returns (graph, result).

        On sql-small these are the calls ``repro sql --method EXACT
        --explain`` makes.
        """
        from repro import optimize, parse_query

        if self.name == "sql-small":
            query = parse_query(item, self.catalog)
            result = optimize(query, method="EXACT")
            result.join_tree().explain()
            return query.graph, result
        return item.graph, optimize(
            item, method="SA", model=self.model(), workers=workers,
            restarts=RESTARTS,
        )

    def plan_traced(self, index: int, item, tracer, spans: Spans):
        """``plan`` with the tracer attached and each call in a span.

        Returns (graph, result, parallel report or None).
        """
        from repro import optimize, parse_query
        from repro.parallel import multi_start_optimize

        if self.name == "sql-small":
            query = spans.run(
                "parse_query", index, parse_query, item, self.catalog
            )
            result = spans.run(
                "optimize", index, optimize, query, method="EXACT",
                trace=tracer,
            )
            spans.run("explain", index, lambda: result.join_tree().explain())
            return query.graph, result, None
        # multi_start_optimize is what optimize(workers=...) calls; called
        # directly, it also hands back the pool report.
        result, report = spans.run(
            "optimize", index, multi_start_optimize, item,
            method="SA", model=self.model(), workers=WORKERS,
            restarts=RESTARTS, tracer=tracer,
        )
        return item.graph, result, report


def read_sql(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return [line.rstrip(";") for line in text.splitlines() if line.strip()]


def peak_rss_mb() -> float:
    """Largest resident set of this process and its reaped pool workers.

    This process's own peak is Linux's ``VmHWM``, not ``ru_maxrss``: a
    process started by exec inherits the ``ru_maxrss`` of the one that
    started it, here ``run.py`` after emitting the inputs.  Pool workers
    are forked from this process, so their ``ru_maxrss`` starts from its
    resident set, as their memory does.
    """
    status = Path("/proc/self/status").read_text(encoding="ascii")
    own = int(re.search(r"^VmHWM:\s+(\d+) kB$", status, re.M).group(1))
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def failure_text(index: int, exc: Exception) -> str:
    traceback.print_exc(file=sys.stderr)
    return f"query {index}: {type(exc).__name__}: {exc}"


def run_timed(workload: Workload, out: dict) -> None:
    """Every round of the queries, untraced; plans are checked off the clock.

    The result is dropped after its check: holding every result until the
    end would grow the heap the collector scans, a cost no user pays.
    """
    from repro.robustness.verify import verify_plan

    model = workload.model()
    pool = len(workload.queries)
    latencies, anchor_costs, failures = [], [], []
    for index, item in enumerate(workload.queries * workload.rounds):
        start = time.perf_counter()
        try:
            graph, result = workload.plan(item)
        # boundary: a failing query is counted, the loop keeps going
        except Exception as exc:  # noqa: BLE001
            failures.append(failure_text(index, exc))
            continue
        latencies.append(time.perf_counter() - start)
        report = verify_plan(result.order, result.cost, graph, model)
        if not report.ok:
            failures.append(f"query {index}: verify_plan: {report.violations}")
        if index % pool in workload.anchors:
            anchor_costs.append(result.cost)
    out.update(
        latencies=latencies,
        anchor_costs=anchor_costs,
        attempted=pool * workload.rounds,
        failures=failures,
    )


def frame_wall(node, name: str, inclusive: bool) -> float:
    """Σ ``wall_s`` of the profile frames called ``name``.

    ``inclusive`` adds each frame's children (a phase's moves); frames
    nested in a counted frame are not counted twice.
    """
    if node.name == name:
        return subtree_wall(node) if inclusive else (node.wall_s or 0.0)
    return sum(
        frame_wall(child, name, inclusive) for child in node.children.values()
    )


def subtree_wall(node) -> float:
    return (node.wall_s or 0.0) + sum(
        subtree_wall(child) for child in node.children.values()
    )


#: Profile frames whose wall time is a per-layer metric, and whether the
#: frame's children are included.
FRAMES = {
    "move:pruned": False,
    "move:accepted": False,
    "move:rejected": False,
    "exact_seed": True,
    "exact_bnb": True,
}


def run_traced(workload: Workload, out: dict, spans: Spans) -> None:
    """Each distinct query once, traced; layer times also from outside."""
    from repro.cost import QueryContext
    from repro.obs.profile import profile_events
    from repro.obs.wallclock import WallClockTracer
    from repro.robustness.verify import verify_plan

    model = workload.model()
    counters: dict[str, float] = {}
    frames = dict.fromkeys(FRAMES, 0.0)
    failures: list[str] = []
    walls = {"query": [], "twin": []}
    evaluations = reexecuted = 0
    for index, item in enumerate(workload.queries):
        tracer = WallClockTracer()
        try:
            graph, result, report = spans.run(
                "query", index, workload.plan_traced, index, item, tracer, spans
            )
            walls["query"].append(spans.last("query"))
            spans.run("QueryContext", index, QueryContext, graph, model)
            if report is not None:
                reexecuted += len(report.failures)
                _, twin = spans.run(
                    "optimize_workers1", index, workload.plan, item, workers=1
                )
                walls["twin"].append(spans.last("optimize_workers1"))
                if twin != result:
                    failures.append(
                        f"query {index}: workers={WORKERS} result differs "
                        "from its workers=1 twin"
                    )
            check = spans.run(
                "verify_plan", index, verify_plan, result.order, result.cost,
                graph, model,
            )
        # boundary: a failing query is counted, the loop keeps going
        except Exception as exc:  # noqa: BLE001
            failures.append(failure_text(index, exc))
            continue
        if not check.ok:
            failures.append(f"query {index}: verify_plan: {check.violations}")
        evaluations += result.n_evaluations
        for name, value in tracer.metrics.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        root = profile_events(tracer.events, wall=tracer.wall).root
        for name, inclusive in FRAMES.items():
            frames[name] += frame_wall(root, name, inclusive)
    out.update(
        span_totals=spans.totals,
        counters=counters,
        frames=frames,
        walls=walls,
        evaluations=evaluations,
        reexecuted=reexecuted,
        attempted=len(workload.queries),
        failures=failures,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", choices=("sql-small", "multistart-sa-2w"), required=True
    )
    parser.add_argument(
        "--mode", choices=("setup", "timed", "traced"), required=True
    )
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument(
        "--t0", type=float, required=True,
        help="time.monotonic() just before the parent started this process",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    out: dict = {"workload": args.workload, "mode": args.mode}
    workload = Workload(args.workload, args.inputs)

    start = time.perf_counter()
    workload.import_program()
    out["import_s"] = time.perf_counter() - start
    workload.load()
    out["load_s"] = workload.load_s
    for item in workload.warmup:
        workload.plan(item)
    out["setup_s"] = time.monotonic() - args.t0

    if args.mode == "timed":
        run_timed(workload, out)
        out["peak_rss_mb"] = peak_rss_mb()
    elif args.mode == "traced":
        spans = Spans()
        run_traced(workload, out, spans)
        spans.write(args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
