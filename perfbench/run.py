"""End-to-end benchmark of the join-order optimizer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sql-small --seed 1 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``sql-small``         SQL text + stats catalog -> parse_query -> EXACT -> explain
``multistart-sa-2w``  corpus of N = 20..40 queries -> SA, disk model, 2 workers

The run emits the workload's inputs from ``--seed`` (``emit.py``), then
starts fresh client processes (``client.py``).  ``--trace 0`` times the
queries with tracing off and prints the end-to-end metrics.  ``--trace 1``
runs an untraced and a traced pass in separate processes and prints the
per-layer metrics; it also writes both sets next to each other, with the
machine key, to ``.perfbench/<run>/result.json``.

The last line of stdout is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}

Exits non-zero without that line when the program's source is missing or
a client process fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from emit import WORKLOADS, emit  # noqa: E402

#: Fresh processes whose set-up is timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: Every run ends within this many seconds, client processes included.
RUN_LIMIT_S = 170.0


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


class ClientError(RuntimeError):
    """A client process failed or overran the run's time limit."""


class Run:
    """One benchmark run: its inputs, its client processes, its deadline."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.workload = workload
        self.work = ROOT / ".perfbench" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
        self.inputs = self.work / "inputs"
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.started = 0

    def client(self, mode: str) -> dict:
        """Run one client pass in a fresh process; its result dict."""
        out = self.work / f"{mode}-{self.started}.json"
        self.started += 1
        t0 = time.monotonic()
        command = [
            sys.executable, str(HERE / "client.py"),
            "--workload", self.workload, "--mode", mode,
            "--inputs", str(self.inputs), "--out", str(out), "--t0", repr(t0),
        ]
        # Its own session, so a pool the client leaves behind is killed with it.
        proc = subprocess.Popen(
            command, cwd=ROOT, stdout=sys.stderr, start_new_session=True
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise ClientError(f"{mode} client overran the {RUN_LIMIT_S:g} s limit")
        if code != 0:
            raise ClientError(f"{mode} client exited with code {code}")
        return json.loads(out.read_text(encoding="utf-8"))


def failed_queries(*passes: dict) -> int:
    """Distinct failed queries per pass, summed over passes."""
    return sum(
        len({text.split(":", 1)[0] for text in one["failures"]})
        for one in passes
    )


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(timed: dict, setups: list[dict]) -> dict[str, float]:
    latencies = timed["latencies"]
    costs = timed["anchor_costs"]
    return {
        "queries_per_s": len(latencies) / math.fsum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": statistics.quantiles(latencies, n=10)[-1],
        "plan_cost_gmean": math.exp(
            math.fsum(math.log(cost) for cost in costs) / len(costs)
        ),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(one["setup_s"] for one in setups),
    }


def per_layer(
    workload: str, timed: dict, traced: dict, processes: list[dict]
) -> dict[str, float]:
    """Per-layer metrics: per-query seconds are means over traced queries.

    The traced pass plans each distinct query once and the timed pass
    may plan them in several rounds, so traced and untraced walls are
    compared as means per query.
    """
    spans = traced["span_totals"]
    counters = traced["counters"]
    frames = traced["frames"]
    walls = traced["walls"]
    n = max(1, len(walls["query"]))
    loaded = statistics.median(one["load_s"] for one in processes)
    untraced = statistics.fmean(timed["latencies"])
    traced_wall = math.fsum(walls["query"]) / n
    twin = math.fsum(walls["twin"]) / n
    moves = sum(
        counters.get(f"moves_{kind}", 0.0)
        for kind in ("accepted", "rejected", "pruned")
    )
    metrics = {
        "setup.import_s": statistics.median(one["import_s"] for one in processes),
        "frontend.catalog_load_s": loaded if workload == "sql-small" else 0.0,
        "frontend.parse_s": spans.get("parse_query", 0.0) / n,
        "catalog.load_s": 0.0 if workload == "sql-small" else loaded,
        "cost.compile_s": spans.get("QueryContext", 0.0) / n,
        "cost.joins_per_eval": ratio(
            counters.get("joins_walked", 0.0), counters.get("evaluations", 0.0)
        ),
        "cost.pruned_frac": ratio(
            counters.get("pruned", 0.0), counters.get("evaluations", 0.0)
        ),
        "core.optimize_s": spans.get("optimize", 0.0) / n,
        "core.evals_per_s": ratio(traced["evaluations"], spans.get("optimize", 0.0)),
        "core.evaluations": float(traced["evaluations"]),
        "core.accept_frac": ratio(counters.get("moves_accepted", 0.0), moves),
        "core.move_pruned_s": frames["move:pruned"] / n,
        "core.move_accepted_s": frames["move:accepted"] / n,
        "core.move_rejected_s": frames["move:rejected"] / n,
        "core.exact.seed_s": frames["exact_seed"] / n,
        "core.exact.bnb_s": frames["exact_bnb"] / n,
        "core.exact.nodes_expanded": counters.get("exact_nodes_expanded", 0.0) / n,
        "robustness.verify_s": spans.get("verify_plan", 0.0) / n,
        "plans.explain_s": spans.get("explain", 0.0) / n,
        "parallel.speedup": ratio(twin, untraced),
        "parallel.overhead_s": untraced - twin / 2 if twin else 0.0,
        "parallel.reexecuted": float(traced["reexecuted"]),
        "obs.trace_overhead": ratio(traced_wall, untraced),
    }
    return metrics


def answers(workload: str, layers: dict, e2e: dict, traced: dict) -> list[str]:
    """ROADMAP item 1's questions (b) and (c), and the layer split."""
    spans = traced["span_totals"]
    outside = sum(
        layers[name] for name in (
            "frontend.parse_s", "plans.explain_s", "robustness.verify_s",
            "cost.compile_s",
        )
    )
    mean_latency = 1.0 / e2e["queries_per_s"]
    lines = [
        f"parse + explain + verify + compile per query: {outside:.6f} s "
        f"= {outside / mean_latency:.2%} of the mean untraced query time",
    ]
    if workload == "sql-small":
        share = 1.0 - ratio(spans.get("optimize", 0.0), spans.get("query", 0.0))
        lines.append(
            f"(c) share of sql-small query time outside optimize "
            f"(traced spans): {share:.2%}"
        )
    if workload == "multistart-sa-2w":
        lines.append(
            f"(b) parallel.speedup, workers=1 / workers=2 wall: "
            f"{layers['parallel.speedup']:.3f}"
        )
    return lines


def machine_key() -> dict:
    """What a result must match before it is compared with another."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    git_sha = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        if probe.returncode == 0:
            git_sha = probe.stdout.strip()
    # The checkout may carry no git metadata: the source digest still
    # names the code that ran.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
    }


def table(title: str, metrics: dict, units: dict) -> list[str]:
    lines = [title]
    for name, value in metrics.items():
        lines.append(f"  {name:<28} {value:>16.6g} {units[name]}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    e2e_units = declared_units("end_to_end")
    layer_units = declared_units("per_layer")

    run = Run(args.workload, args.seed, args.trace)
    emit(args.workload, args.seed, args.seconds, run.inputs)
    key = machine_key()
    try:
        setups = [run.client("setup") for _ in range(SETUP_SAMPLES - 1)]
        timed = run.client("timed")
        e2e = end_to_end(timed, setups + [timed])
        passes = [timed]
        report = table(f"end to end ({args.workload}, untraced)", e2e, e2e_units)
        result = {"machine": key, "end_to_end": e2e}
        if args.trace:
            traced = run.client("traced")
            passes.append(traced)
            layers = per_layer(args.workload, timed, traced, setups + passes)
            result["per_layer"] = layers
            report += table("per layer (traced pass)", layers, layer_units)
            report += answers(args.workload, layers, e2e, traced)
            metrics = {
                name: {"value": layers[name], "unit": unit}
                for name, unit in layer_units.items()
            }
        else:
            metrics = {
                name: {"value": e2e[name], "unit": unit}
                for name, unit in e2e_units.items()
            }
    except ClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.inputs, ignore_errors=True)

    attempted = sum(one["attempted"] for one in passes)
    failed = failed_queries(*passes)
    for one in passes:
        for text in one["failures"]:
            print(f"FAILED ({one['mode']}): {text}", file=sys.stderr)
    result.update(attempted=attempted, failed=failed)
    (run.work / "result.json").write_text(json.dumps(result, indent=2), encoding="utf-8")
    print("machine: " + json.dumps(key, sort_keys=True))
    print("\n".join(report))
    print(f"results: {run.work.relative_to(ROOT) / 'result.json'}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
