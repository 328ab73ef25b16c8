"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``optimize``
    Generate a synthetic query and optimize it with a chosen method.
``compare``
    Run several methods on one query and print a league table.
``experiment``
    Regenerate one of the paper's tables or figures at a chosen scale.
``explain-trace``
    Reconstruct a plan's incumbent lineage ("why this plan") from a
    trace file recorded with ``--trace``.
``bench``
    Benchmark history ledger: ``bench record`` appends normalized
    ``BENCH_*.json`` entries to ``benchmarks/results/HISTORY.jsonl``;
    ``bench check`` compares the newest entry per benchmark against a
    trailing window and exits 1 on regression (the CI perf gate).
``obs``
    Passthrough to the trace reader CLI (``python -m repro.obs``):
    ``summarize`` / ``diff`` / ``profile``.
``methods``
    List the available optimization methods.
``benchmarks``
    List the synthetic benchmark variations.

Exit codes
----------
0
    Success: a verified plan was produced cleanly.
1
    Regression/divergence: ``bench check`` found a perf regression, or
    ``obs diff`` found trace divergence.
2
    Usage error: bad arguments, unknown method, unparsable query,
    invalid statistics.
3
    Degraded success (``--resilient``): a verified plan was produced,
    but the fallback chain had to recover from failures; the failure
    log is printed to stderr.
4
    No valid plan: every stage of the resilient fallback chain failed.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.core.budget import DEFAULT_UNITS_PER_N2
from repro.core.combinations import PAPER_METHODS, available_method_names, make_strategy
from repro.core.optimizer import optimize
from repro.cost.disk import DiskCostModel
from repro.cost.memory import MainMemoryCostModel
from repro.experiments import figures as figures_module
from repro.experiments import tables as tables_module
from repro.experiments.report import render_experiment, render_matrix
from repro.workloads.benchmarks import benchmark_spec, benchmark_specs
from repro.workloads.generator import generate_query

_EXPERIMENTS = ("table1", "table2", "table3", "figure4", "figure5", "figure6", "figure7")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DEGRADED = 3
EXIT_NO_PLAN = 4


def _cost_model(name: str):
    if name == "memory":
        return MainMemoryCostModel()
    if name == "disk":
        return DiskCostModel()
    raise ValueError(f"unknown cost model {name!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Large join query optimization (Swami, SIGMOD 1988/1989)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--joins", type=int, default=10, help="number of joins N")
    common.add_argument("--seed", type=int, default=0, help="random seed")
    common.add_argument(
        "--benchmark", type=int, default=0, help="benchmark variation 0..9"
    )
    common.add_argument(
        "--model", choices=("memory", "disk"), default="memory", help="cost model"
    )
    common.add_argument(
        "--time-factor", type=float, default=3.0, help="time limit factor k in kN^2"
    )

    parallelism = argparse.ArgumentParser(add_help=False)
    parallelism.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan restarts across this many worker processes; the result "
        "is bit-identical to --workers 1 for any seed (see docs/testing.md)",
    )
    parallelism.add_argument(
        "--restarts",
        type=int,
        default=None,
        help="independent multi-start restarts to orchestrate (default 8 "
        "when --workers is given; unset keeps the single-trajectory path)",
    )

    resilience = argparse.ArgumentParser(add_help=False)
    resilience.add_argument(
        "--resilient",
        action="store_true",
        help="absorb optimizer failures via the fallback chain "
        "(exit code 3 when the result is degraded)",
    )
    resilience.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="rotated-seed retries per stage of the fallback chain",
    )

    observability = argparse.ArgumentParser(add_help=False)
    observability.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help="record a deterministic trace of the run's search dynamics "
        "to this JSONL file (read it with `python -m repro.obs "
        "summarize`); tracing never changes the result or the rng "
        "stream (see docs/observability.md)",
    )
    observability.add_argument(
        "--metrics",
        metavar="FILE.json",
        default=None,
        help="write the run's metrics registry (counters, gauges, "
        "histograms) to this JSON file",
    )
    observability.add_argument(
        "--wall",
        action="store_true",
        help="with --trace, also record a wall-clock sidecar "
        "(FILE.jsonl.wall) for `repro obs profile --wall`; the trace "
        "itself stays byte-identical (timestamps never enter it)",
    )

    cmd = sub.add_parser(
        "optimize",
        parents=[common, resilience, parallelism, observability],
        help="optimize one query",
    )
    cmd.add_argument("--method", default="IAI", help="optimization method")
    cmd.add_argument("--explain", action="store_true", help="print the join tree")

    cmd = sub.add_parser(
        "compare",
        parents=[common, parallelism],
        help="compare methods",
    )
    cmd.add_argument(
        "--methods",
        nargs="+",
        default=list(PAPER_METHODS),
        help="methods to compare",
    )
    cmd.add_argument(
        "--gap",
        action="store_true",
        help="also run the exact branch-and-bound and add a true-cost/"
        "exact-optimum column (see docs/exact.md)",
    )
    cmd.add_argument(
        "--max-exact",
        type=int,
        default=16,
        help="relation ceiling for the exact pass; larger queries anchor "
        "the gap to the hybrid (unproven) reference instead",
    )

    cmd = sub.add_parser(
        "exact",
        parents=[common],
        help="exact optimum (branch-and-bound or dynamic programming)",
    )
    cmd.add_argument(
        "--max-relations",
        type=int,
        default=16,
        help="refuse the exponential search beyond this many relations",
    )
    cmd.add_argument(
        "--engine",
        choices=("dp", "bnb"),
        default="dp",
        help="'dp' is the System R subset DP (exact under the static "
        "estimator); 'bnb' is the branch-and-bound, exact under the true "
        "propagating model (see docs/exact.md)",
    )

    cmd = sub.add_parser(
        "gap",
        parents=[common, parallelism],
        help="optimality gaps: every method's true cost / exact optimum",
    )
    cmd.add_argument(
        "--methods",
        nargs="+",
        default=list(PAPER_METHODS),
        help="methods to measure",
    )
    cmd.add_argument(
        "--max-exact",
        type=int,
        default=16,
        help="relation ceiling for the proven-exact pass; above it the "
        "hybrid (unproven) reference anchors the gaps",
    )
    cmd.add_argument(
        "--json",
        metavar="FILE.json",
        default=None,
        help="also write the byte-stable gap report to this file",
    )

    cmd = sub.add_parser(
        "landscape", parents=[common], help="cost distribution of random plans"
    )
    cmd.add_argument("--samples", type=int, default=1000)

    cmd = sub.add_parser("experiment", help="regenerate a paper table/figure")
    cmd.add_argument("name", choices=_EXPERIMENTS + ("all",))
    cmd.add_argument("--queries-per-n", type=int, default=4)
    cmd.add_argument("--n-values", type=int, nargs="+", default=[20, 30])
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument(
        "--units-per-n2", type=float, default=DEFAULT_UNITS_PER_N2 / 3
    )

    cmd = sub.add_parser(
        "sql",
        parents=[resilience, parallelism, observability],
        help="optimize a SQL query against a catalog",
    )
    cmd.add_argument("query", help="SQL text (quote the whole query)")
    cmd.add_argument(
        "--catalog", required=True, help="path to a JSON statistics catalog"
    )
    cmd.add_argument("--method", default="IAI")
    cmd.add_argument("--model", choices=("memory", "disk"), default="memory")
    cmd.add_argument("--time-factor", type=float, default=9.0)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument("--explain", action="store_true")

    cmd = sub.add_parser(
        "explain-trace",
        help="reconstruct a plan's incumbent lineage from a trace file",
    )
    cmd.add_argument("trace", help="path to a .jsonl trace file")
    cmd.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is canonical and byte-stable)",
    )

    cmd = sub.add_parser(
        "bench",
        help="benchmark history ledger (record BENCH_*.json, check trends)",
    )
    bench_sub = cmd.add_subparsers(dest="bench_command", required=True)
    rec = bench_sub.add_parser(
        "record",
        help="append normalized BENCH_*.json entries to the history ledger",
    )
    rec.add_argument(
        "files",
        nargs="*",
        help="benchmark JSON files (default: benchmarks/results/BENCH_*.json)",
    )
    rec.add_argument(
        "--history",
        default=None,
        help="ledger path (default: benchmarks/results/HISTORY.jsonl)",
    )
    rec.add_argument(
        "--note",
        default=None,
        help="run metadata stamped on every entry (commit id, 'backfill', ...)",
    )
    chk = bench_sub.add_parser(
        "check",
        help="compare newest entries against their trailing window; "
        "exits 1 on regression",
    )
    chk.add_argument("--history", default=None, help="ledger path")
    chk.add_argument(
        "--window", type=int, default=None, help="trailing entries compared"
    )
    chk.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="base relative deviation allowed (noise spread is added)",
    )
    chk.add_argument(
        "--min-history",
        type=int,
        default=None,
        help="entries required before a benchmark gates",
    )
    chk.add_argument(
        "--format", choices=("text", "json"), default="text"
    )

    cmd = sub.add_parser(
        "obs",
        help="trace reader passthrough (= python -m repro.obs ...)",
    )
    cmd.add_argument(
        "obs_args",
        nargs=argparse.REMAINDER,
        help="arguments for the repro.obs reader CLI "
        "(summarize | diff | profile)",
    )

    sub.add_parser("methods", help="list optimization methods")
    sub.add_parser("benchmarks", help="list benchmark variations")
    return parser


def _make_tracer(args: argparse.Namespace):
    """A recording tracer when ``--trace``/``--metrics`` asked for one."""
    if args.trace is None and args.metrics is None:
        return None
    if getattr(args, "wall", False) and args.trace is not None:
        # The sanctioned DET002 clock boundary: timestamps go to a
        # sidecar file, never into the trace (see repro.obs.wallclock).
        from repro.obs.wallclock import WallClockTracer

        return WallClockTracer()
    from repro.obs import RecordingTracer

    return RecordingTracer()


def _flush_observability(tracer, args: argparse.Namespace, result) -> None:
    """Write the trace/metrics files the flags requested."""
    if tracer is None:
        return
    from repro.obs import write_metrics, write_trace

    if args.trace is not None:
        write_trace(
            tracer.events,
            args.trace,
            meta={
                "method": result.method,
                "n_relations": result.graph.n_relations,
                "seed": args.seed,
            },
        )
        wall = getattr(tracer, "wall", None)
        if wall is not None:
            from repro.obs.wallclock import sidecar_path, write_wall_sidecar

            write_wall_sidecar(wall, sidecar_path(args.trace))
    if args.metrics is not None:
        write_metrics(tracer.metrics, args.metrics)


def _report_degradation(result) -> int:
    """Print the failure log to stderr; return the appropriate exit code."""
    if not result.degraded:
        return EXIT_OK
    from repro.robustness.resilience import FailureLog

    print(
        FailureLog(records=list(result.failures)).summary(), file=sys.stderr
    )
    return EXIT_DEGRADED


def _cmd_optimize(args: argparse.Namespace) -> int:
    spec = benchmark_spec(args.benchmark)
    query = generate_query(spec, args.joins, args.seed)
    tracer = _make_tracer(args)
    result = optimize(
        query,
        method=args.method,
        model=_cost_model(args.model),
        time_factor=args.time_factor,
        seed=args.seed,
        resilient=args.resilient,
        max_retries=args.max_retries,
        workers=args.workers,
        restarts=args.restarts,
        trace=tracer,
    )
    _flush_observability(tracer, args, result)
    print(f"query          : {query.name} (N={query.n_joins})")
    print(f"method         : {result.method}")
    print(f"plan cost      : {result.cost:,.0f}")
    print(f"plans evaluated: {result.n_evaluations:,}")
    print(f"join order     : {result.order}")
    if result.degraded:
        print(f"degraded       : yes ({len(result.failures)} failure(s))")
    if args.explain:
        print()
        print(result.join_tree().explain())
    return _report_degradation(result)


def _exact_reference(query, model, args: argparse.Namespace):
    """The exact (or hybrid, beyond the ceiling) reference for gaps.

    Always computed in the parent process, so gap output inherits the
    comparison's workers-invariance byte for byte.
    """
    from repro.core.exact import exact_optimum, hybrid_optimum

    if query.graph.n_relations <= args.max_exact:
        return exact_optimum(
            query.graph,
            model,
            max_relations=args.max_exact,
            seed=args.seed,
        )
    return hybrid_optimum(
        query.graph,
        model,
        max_exact=args.max_exact,
        seed=args.seed,
        time_factor=args.time_factor,
    )


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.core.combinations import compare_methods
    from repro.robustness.resilience import FailureLog

    spec = benchmark_spec(args.benchmark)
    query = generate_query(spec, args.joins, args.seed)
    model = _cost_model(args.model)
    for method in args.methods:
        make_strategy(method)  # validate the name before the long run
    exact = _exact_reference(query, model, args) if args.gap else None
    failure_log = FailureLog()
    results = compare_methods(
        query,
        methods=args.methods,
        model=model,
        time_factor=args.time_factor,
        seed=args.seed,
        workers=args.workers,
        failure_log=failure_log,
    )
    if failure_log:
        print(failure_log.summary(), file=sys.stderr)
    best = min(result.cost for result in results.values())
    ranked = sorted(results.items(), key=lambda kv: kv[1].cost)
    if exact is None:
        column_labels = ["scaled", "evals"]
        values = [
            [result.cost / best, float(result.n_evaluations)]
            for _, result in ranked
        ]
    else:
        from repro.core.exact import optimality_gap

        column_labels = ["scaled", "gap", "evals"]
        values = [
            [
                result.cost / best,
                optimality_gap(result.cost, exact.cost),
                float(result.n_evaluations),
            ]
            for _, result in ranked
        ]
    print(
        render_matrix(
            f"{query.name}: scaled costs at {args.time_factor:g}N^2",
            row_labels=[method for method, _ in ranked],
            column_labels=column_labels,
            values=values,
            row_header="method",
        )
    )
    if exact is not None:
        anchor = "proven optimum" if exact.proven else f"best known ({exact.mode})"
        print(f"exact anchor: {exact.cost:,.2f} ({anchor})")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    kwargs = dict(
        n_values=tuple(args.n_values),
        queries_per_n=args.queries_per_n,
        units_per_n2=args.units_per_n2,
        seed=args.seed,
    )
    if args.name == "all":
        for name in _EXPERIMENTS:
            sub_args = argparse.Namespace(**{**vars(args), "name": name})
            _cmd_experiment(sub_args)
            print()
        return 0
    if args.name == "table3":
        result = tables_module.table3(**kwargs)
        rows = sorted(result.rows)
        print(
            render_matrix(
                "Table 3: benchmark variations at 9N^2",
                row_labels=[str(n) for n in rows],
                column_labels=list(result.methods),
                values=[
                    [result.rows[n][m] for m in result.methods] for n in rows
                ],
                row_header="Bench",
            )
        )
        return 0
    runner = {
        "table1": tables_module.table1,
        "table2": tables_module.table2,
        "figure4": figures_module.figure4,
        "figure5": figures_module.figure5,
        "figure6": figures_module.figure6,
        "figure7": figures_module.figure7,
    }[args.name]
    result = runner(**kwargs)
    print(render_experiment(f"{args.name} (mean scaled cost)", result))
    return 0


def _cmd_exact(args: argparse.Namespace) -> int:
    spec = benchmark_spec(args.benchmark)
    query = generate_query(spec, args.joins, args.seed)
    if args.engine == "bnb":
        from repro.core.exact import exact_optimum

        bnb = exact_optimum(
            query.graph,
            _cost_model(args.model),
            max_relations=args.max_relations,
            seed=args.seed,
        )
        pruned = bnb.nodes_pruned_bound + bnb.nodes_pruned_dominated
        print(f"query            : {query.name} (N={query.n_joins})")
        print(f"optimal order    : {bnb.order}")
        print(f"optimal cost     : {bnb.cost:,.2f}")
        print(f"proven           : {'yes' if bnb.proven else 'no'}")
        print(f"nodes expanded   : {bnb.nodes_expanded:,}")
        print(f"nodes pruned     : {pruned:,}")
        print(f"cost evaluations : {bnb.n_cost_evaluations:,}")
        return 0
    from repro.core.dynamic_programming import dp_optimal_order

    result = dp_optimal_order(
        query.graph, _cost_model(args.model), max_relations=args.max_relations
    )
    print(f"query            : {query.name} (N={query.n_joins})")
    print(f"optimal order    : {result.order}")
    print(f"static-world cost: {result.cost:,.2f}")
    print(f"propagated cost  : {result.recost:,.2f}")
    print(f"subsets explored : {result.n_subsets:,}")
    print(f"cost evaluations : {result.n_cost_evaluations:,}")
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from repro.core.combinations import compare_methods
    from repro.core.exact import build_gap_report, gap_report_json
    from repro.robustness.resilience import FailureLog

    spec = benchmark_spec(args.benchmark)
    query = generate_query(spec, args.joins, args.seed)
    model = _cost_model(args.model)
    for method in args.methods:
        make_strategy(method)  # validate the name before the long run
    exact = _exact_reference(query, model, args)
    failure_log = FailureLog()
    results = compare_methods(
        query,
        methods=args.methods,
        model=model,
        time_factor=args.time_factor,
        seed=args.seed,
        workers=args.workers,
        failure_log=failure_log,
    )
    if failure_log:
        print(failure_log.summary(), file=sys.stderr)
    report = build_gap_report(query, model, results, exact)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(gap_report_json(report))
    print(
        render_matrix(
            f"{query.name}: optimality gaps at {args.time_factor:g}N^2",
            row_labels=[row.method for row in report.rows],
            column_labels=["gap", "evals"],
            values=[
                [row.gap, float(row.n_evaluations)] for row in report.rows
            ],
            row_header="method",
        )
    )
    anchor = "proven optimum" if report.proven else f"best known ({report.mode})"
    order = "-".join(str(vertex) for vertex in report.exact_order)
    pruned = report.nodes_pruned_bound + report.nodes_pruned_dominated
    print(f"exact cost    : {report.exact_cost:,.2f} ({anchor})")
    print(f"exact order   : {order}")
    print(f"nodes expanded: {report.nodes_expanded:,} (pruned {pruned:,})")
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    from repro.experiments.landscape import sample_cost_distribution, summarize

    spec = benchmark_spec(args.benchmark)
    query = generate_query(spec, args.joins, args.seed)
    costs = sample_cost_distribution(
        query.graph, _cost_model(args.model), args.samples, args.seed
    )
    summary = summarize(costs)
    print(f"query              : {query.name} (N={query.n_joins})")
    print(f"samples            : {summary.n_samples}")
    print(f"min / median / max : {summary.minimum:,.0f} / "
          f"{summary.median:,.0f} / {summary.maximum:,.0f}")
    print(f"spread (max/min)   : {summary.spread:,.0f}x")
    print(f"within 2x of best  : {summary.fraction_within_2x:.1%}")
    print(f"within 10x of best : {summary.fraction_within_10x:.1%}")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.frontend import StatsCatalog, parse_query

    catalog = StatsCatalog.from_json(args.catalog)
    query = parse_query(args.query, catalog)
    tracer = _make_tracer(args)
    result = optimize(
        query,
        method=args.method,
        model=_cost_model(args.model),
        time_factor=args.time_factor,
        seed=args.seed,
        resilient=args.resilient,
        max_retries=args.max_retries,
        workers=args.workers,
        restarts=args.restarts,
        trace=tracer,
    )
    _flush_observability(tracer, args, result)
    print(f"relations : {query.graph.n_relations}  joins: {query.n_joins}")
    print(f"method    : {result.method}")
    print(f"plan cost : {result.cost:,.0f}")
    print(f"join order: {result.order}")
    if result.degraded:
        print(f"degraded  : yes ({len(result.failures)} failure(s))")
    if args.explain:
        print()
        print(result.join_tree().explain())
    return _report_degradation(result)


def _cmd_methods() -> int:
    for name in available_method_names():
        print(f"{name:6s} {make_strategy(name).description}")
    return 0


def _cmd_benchmarks() -> int:
    for number, spec in sorted(benchmark_specs().items()):
        print(
            f"{number}  {spec.name:18s} cutoff={spec.join_cutoff_probability:<5g}"
            f" bias={spec.graph_bias}"
        )
    return 0


def _cmd_explain_trace(args: argparse.Namespace) -> int:
    from repro.obs import TraceFormatError, read_trace
    from repro.obs.provenance import (
        build_provenance,
        provenance_json,
        render_provenance,
    )

    try:
        events = read_trace(args.trace)
    except (FileNotFoundError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    provenance = build_provenance(events)
    if args.format == "json":
        sys.stdout.write(provenance_json(provenance))
    else:
        print(render_provenance(provenance))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    import glob as glob_module

    from repro.obs import bench as bench_module

    history = args.history or bench_module.DEFAULT_HISTORY
    if args.bench_command == "record":
        files = list(args.files) or sorted(
            glob_module.glob(
                os.path.join("benchmarks", "results", "BENCH_*.json")
            )
        )
        if not files:
            print("error: no benchmark JSON files found", file=sys.stderr)
            return EXIT_USAGE
        try:
            entries = bench_module.record(files, history, note=args.note)
        except (FileNotFoundError, bench_module.BenchFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"recorded {len(entries)} entr"
              f"{'y' if len(entries) == 1 else 'ies'} to {history}")
        return EXIT_OK
    try:
        report = bench_module.check(
            history,
            window=(
                args.window
                if args.window is not None
                else bench_module.DEFAULT_WINDOW
            ),
            threshold=(
                args.threshold
                if args.threshold is not None
                else bench_module.DEFAULT_THRESHOLD
            ),
            min_history=(
                args.min_history
                if args.min_history is not None
                else bench_module.DEFAULT_MIN_HISTORY
            ),
        )
    except (FileNotFoundError, bench_module.BenchFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        import json as json_module

        sys.stdout.write(
            json_module.dumps(
                bench_module.check_report_dict(report),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
    else:
        print(bench_module.render_check(report))
    return EXIT_OK if report.ok else 1


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.__main__ import main as obs_main

    return obs_main(args.obs_args)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "exact":
        return _cmd_exact(args)
    if args.command == "gap":
        return _cmd_gap(args)
    if args.command == "landscape":
        return _cmd_landscape(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "sql":
        return _cmd_sql(args)
    if args.command == "explain-trace":
        return _cmd_explain_trace(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "obs":
        return _cmd_obs(args)
    if args.command == "methods":
        return _cmd_methods()
    if args.command == "benchmarks":
        return _cmd_benchmarks()
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code (see module docstring)."""
    from repro.robustness.resilience import NoValidPlanError

    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except NoValidPlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PLAN
    except (ValueError, KeyError) as exc:
        # Unknown methods/benchmarks/tables, unparsable queries, invalid
        # statistics: usage errors, matching argparse's own exit code.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # Reader closed early (e.g. `repro explain-trace t.jsonl | head`):
        # not an error.  Point stdout at devnull so the interpreter's
        # exit flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
