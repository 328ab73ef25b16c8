"""Tests for detlint v2: call graph, summaries, project rules, cache.

Three layers, mirroring the architecture:

* **dataflow/callgraph units** — extraction and fixpoint propagation on
  tiny in-memory projects, asserting summaries and witness chains;
* **project-rule fixtures** — every new family (PURE001, DET005,
  RACE001, ASYNC001, EXC002) demonstrated with a snippet that MUST flag
  and a near-miss that MUST NOT, through the real engine;
* **run-level properties** — byte-identical reports across runs, warm
  (cached) findings identical to cold, cache invalidation on content and
  configuration changes, suppression/baseline round-trips for the new
  rule ids.
"""

from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.callgraph import build_callgraph
from repro.analysis.cli import main
from repro.analysis.config import DetlintConfig
from repro.analysis.dataflow import PARAM_MUTATION, RNG, extract_module_facts
from repro.analysis.engine import Analyzer
from repro.analysis.findings import Finding
from repro.analysis.reporting import render_json, render_sarif

REPO_ROOT = Path(__file__).resolve().parents[1]
ASYNC_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "async_service.py"


def analyze(
    source: str,
    rel_path: str = "fixture/mod.py",
    rule_options: dict | None = None,
) -> list[Finding]:
    config = DetlintConfig(
        root="/nonexistent",
        baseline=None,
        rule_options=rule_options or {},
    )
    analyzer = Analyzer(config, baseline=None, use_cache=False)
    return analyzer.check_source(textwrap.dedent(source), rel_path)


def codes(findings: list[Finding]) -> set[str]:
    return {finding.rule for finding in findings if finding.counts}


def open_messages(findings: list[Finding], rule: str) -> list[str]:
    return [f.message for f in findings if f.counts and f.rule == rule]


def facts_for(source: str, rel_path: str = "src/pkg/mod.py"):
    tree = ast.parse(textwrap.dedent(source))
    return extract_module_facts(
        rel_path, tree, textwrap.dedent(source).splitlines()
    )


# ---------------------------------------------------------------------------
# Call graph units: propagation and witness chains


def test_effect_propagates_transitively_with_chain() -> None:
    modules = {
        "src/pkg/a.py": facts_for(
            """
            from pkg.b import middle

            def top(x):
                return middle(x)
            """,
            "src/pkg/a.py",
        ),
        "src/pkg/b.py": facts_for(
            """
            import random

            def leaf():
                return random.random()

            def middle(x):
                return x + leaf()
            """,
            "src/pkg/b.py",
        ),
    }
    graph = build_callgraph(modules)
    top = "pkg.a.top"
    assert RNG in graph.summaries[top]
    assert graph.effect_chain(top, RNG) == [top, "pkg.b.middle", "pkg.b.leaf"]
    # The witness anchors in top's own file, at the call edge.
    witness = graph.summaries[top][RNG]
    assert witness.via == "pkg.b.middle"
    assert "middle(x)" in witness.snippet


def test_param_mutation_maps_per_parameter() -> None:
    facts = facts_for(
        """
        def tally(bucket, value):
            bucket.append(value)

        def caller_passes_param(out, v):
            tally(out, v)

        def caller_passes_local(v):
            fresh = []
            tally(fresh, v)
            return fresh
        """
    )
    graph = build_callgraph({"src/pkg/mod.py": facts})
    assert graph.mutated_params["pkg.mod.tally"].keys() == {"bucket"}
    # The *param*-rooted operand propagates, onto the right name...
    assert "out" in graph.mutated_params["pkg.mod.caller_passes_param"]
    # ...while the fresh local stops the chain entirely.
    assert not graph.mutated_params["pkg.mod.caller_passes_local"]
    assert (
        PARAM_MUTATION
        not in graph.summaries["pkg.mod.caller_passes_local"]
    )


def test_constructor_self_mutation_is_not_the_callers_problem() -> None:
    facts = facts_for(
        """
        class Acc:
            def __init__(self, graph):
                self.total = 0.0
                self.graph = graph

        def price(graph, order):
            acc = Acc(graph)
            return acc.total
        """
    )
    graph = build_callgraph({"src/pkg/mod.py": facts})
    # __init__ mutates its own (fresh) self; `price` stays pure.
    assert "self" in graph.mutated_params["pkg.mod.Acc.__init__"]
    assert PARAM_MUTATION not in graph.summaries["pkg.mod.price"]


def test_caught_exceptions_do_not_propagate() -> None:
    facts = facts_for(
        """
        def fails():
            raise ValueError("boom")

        def shielded():
            try:
                return fails()
            except ValueError:
                return None

        def exposed():
            return fails()
        """
    )
    graph = build_callgraph({"src/pkg/mod.py": facts})
    assert "ValueError" not in graph.raise_summaries["pkg.mod.shielded"]
    assert "ValueError" in graph.raise_summaries["pkg.mod.exposed"]


def test_unordered_return_propagates_through_wrappers() -> None:
    facts = facts_for(
        """
        def frontier(state):
            return {v for v in state}

        def wrapped(state):
            return frontier(state)

        def sorted_wrapper(state):
            return sorted(frontier(state))
        """
    )
    graph = build_callgraph({"src/pkg/mod.py": facts})
    assert "pkg.mod.frontier" in graph.unordered
    assert "pkg.mod.wrapped" in graph.unordered
    assert "pkg.mod.sorted_wrapper" not in graph.unordered


# ---------------------------------------------------------------------------
# PURE001 — declared-pure entrypoints


def test_pure001_flags_transitive_param_mutation() -> None:
    findings = analyze(
        """
        def tally(bucket, value):
            bucket.append(value)

        def plan_cost(order, out):
            for v in order:
                tally(out, v)
            return len(out)
        """
    )
    assert "PURE001" in codes(findings)
    (message,) = open_messages(findings, "PURE001")
    assert "mutates an argument in place" in message
    assert "call chain:" in message


def test_pure001_flags_transitive_rng() -> None:
    findings = analyze(
        """
        import random

        def jitter():
            return random.random()

        def helper(x):
            return x * jitter()

        def plan_cost(order, graph):
            return sum(helper(v) for v in order)
        """
    )
    messages = open_messages(findings, "PURE001")
    assert any("draws random numbers" in m for m in messages)


def test_pure001_ignores_fresh_object_accumulation() -> None:
    findings = analyze(
        """
        class Acc:
            def __init__(self):
                self.total = 0.0

            def add(self, v):
                self.total += v

        def plan_cost(order, graph):
            acc = Acc()
            for v in order:
                acc.add(v)
            return acc.total
        """
    )
    assert "PURE001" not in codes(findings)


def test_pure001_ignores_non_entrypoint_impurity() -> None:
    findings = analyze(
        """
        import random

        def unrelated_helper():
            return random.random()
        """
    )
    assert "PURE001" not in codes(findings)


def test_pure001_entrypoints_are_configurable() -> None:
    source = """
    import random

    def custom_price(order):
        return random.random()
    """
    assert "PURE001" not in codes(analyze(source))
    flagged = analyze(
        source,
        rule_options={"PURE001": {"entrypoints": ["custom_price"]}},
    )
    assert "PURE001" in codes(flagged)


def test_pure001_flags_registry_dispatched_effect() -> None:
    findings = analyze(
        """
        import random

        def make_noisy():
            return random.random()

        FACTORIES = {"noisy": make_noisy}

        def plan_cost(order, kind):
            factory = FACTORIES[kind]
            return factory()
        """
    )
    assert "PURE001" in codes(findings)


# ---------------------------------------------------------------------------
# DET005 — cross-function unordered consumption


def test_det005_flags_list_over_set_returning_callee() -> None:
    findings = analyze(
        """
        def frontier(state):
            return {v + 1 for v in state}

        def expand(state):
            return list(frontier(state))
        """
    )
    assert "DET005" in codes(findings)
    (message,) = open_messages(findings, "DET005")
    assert "frontier" in message
    # DET003 must not double-flag the same site (the call result is not
    # syntactically unordered).
    assert "DET003" not in codes(findings)


def test_det005_silent_when_callee_sorts() -> None:
    findings = analyze(
        """
        def frontier(state):
            return sorted({v + 1 for v in state})

        def expand(state):
            return list(frontier(state))
        """
    )
    assert "DET005" not in codes(findings)


def test_det005_sees_through_return_wrappers() -> None:
    findings = analyze(
        """
        def raw(state):
            return set(state)

        def wrapped(state):
            return raw(state)

        def expand(state):
            return list(wrapped(state))
        """
    )
    assert "DET005" in codes(findings)


# ---------------------------------------------------------------------------
# RACE001 — pool workers reaching module-global mutation


RACE_WORKER = """
from concurrent.futures import ProcessPoolExecutor

_CACHE = {}


def remember(key, value):
    _CACHE[key] = value


def run_job(job):
    remember(job.key, job.value)
    return job.value


def dispatch(jobs):
    with ProcessPoolExecutor() as pool:
        futures = [pool.submit(run_job, job) for job in jobs]
    return [f.result() for f in futures]
"""


def test_race001_flags_global_mutation_reached_from_worker() -> None:
    findings = analyze(RACE_WORKER)
    assert "RACE001" in codes(findings)
    (message,) = open_messages(findings, "RACE001")
    assert "run_job" in message
    assert "call chain:" in message


def test_race001_silent_for_pure_worker() -> None:
    findings = analyze(
        """
        from concurrent.futures import ProcessPoolExecutor


        def run_job(job):
            return job.value * 2


        def dispatch(jobs):
            with ProcessPoolExecutor() as pool:
                futures = [pool.submit(run_job, job) for job in jobs]
            return [f.result() for f in futures]
        """
    )
    assert "RACE001" not in codes(findings)


def test_race001_leaves_direct_global_rebind_to_det004() -> None:
    findings = analyze(
        """
        from concurrent.futures import ProcessPoolExecutor

        _MODE = "idle"


        def run_job(job):
            global _MODE
            _MODE = "busy"
            return job.value


        def dispatch(jobs):
            with ProcessPoolExecutor() as pool:
                futures = [pool.submit(run_job, job) for job in jobs]
            return [f.result() for f in futures]
        """
    )
    assert "RACE001" not in codes(findings)


# ---------------------------------------------------------------------------
# ASYNC001 — blocking under async def (the checked-in fixture)


def test_async001_on_the_checked_in_fixture() -> None:
    config = DetlintConfig(root=str(REPO_ROOT), baseline=None)
    analyzer = Analyzer(config, baseline=None, use_cache=False)
    findings = analyzer.check_file(str(ASYNC_FIXTURE))
    flagged = {
        f.line: f.message for f in findings if f.rule == "ASYNC001"
    }
    source_lines = ASYNC_FIXTURE.read_text().splitlines()
    # Both impure coroutines flag, each anchored inside its own body...
    assert len(flagged) == 2
    for line, message in flagged.items():
        assert "may block the event loop" in message
        anchor = source_lines[line - 1]
        assert "throttled_read" in anchor or "time.sleep" in anchor
    # ...and the chain through the sync helpers is spelled out.
    deep = [m for m in flagged.values() if "serve_plan_blocking" in m]
    assert deep and "call chain:" in deep[0]
    # The clean variants (to_thread / asyncio.sleep) never appear.
    assert not any(
        "serve_plan_clean" in m or "clean_heartbeat" in m
        for m in flagged.values()
    )


def test_async001_near_miss_async_sleep() -> None:
    findings = analyze(
        """
        import asyncio

        async def pause():
            await asyncio.sleep(1.0)
        """
    )
    assert "ASYNC001" not in codes(findings)


def test_async001_flags_blocking_two_frames_down() -> None:
    findings = analyze(
        """
        import time

        def settle():
            time.sleep(0.1)

        def prepare():
            settle()

        async def serve():
            prepare()
            return 1
        """
    )
    messages = open_messages(findings, "ASYNC001")
    assert len(messages) == 1
    assert "serve" in messages[0]


# ---------------------------------------------------------------------------
# EXC002 — raises-only exception contracts


EXC_OPTIONS = {
    "EXC002": {"contracts": {"mod.api": ["ValueError"]}}
}


def test_exc002_flags_undeclared_transitive_raise() -> None:
    findings = analyze(
        """
        def helper(x):
            if x < 0:
                raise KeyError(x)
            return x

        def api(x):
            if x is None:
                raise ValueError("x required")
            return helper(x)
        """,
        rule_options=EXC_OPTIONS,
    )
    (message,) = open_messages(findings, "EXC002")
    assert "KeyError" in message
    assert "raises only: ValueError" in message


def test_exc002_declared_and_caught_raises_pass() -> None:
    findings = analyze(
        """
        def helper(x):
            if x < 0:
                raise KeyError(x)
            return x

        def api(x):
            if x is None:
                raise ValueError("x required")
            try:
                return helper(x)
            except KeyError:
                return 0
        """,
        rule_options=EXC_OPTIONS,
    )
    assert "EXC002" not in codes(findings)


def test_exc002_without_contracts_is_silent() -> None:
    findings = analyze(
        """
        def api(x):
            raise RuntimeError("always")
        """
    )
    assert "EXC002" not in codes(findings)


# ---------------------------------------------------------------------------
# Suppression and baseline round-trips for the new rule ids


def test_new_rules_suppress_with_reason() -> None:
    findings = analyze(
        """
        def frontier(state):
            return {v for v in state}

        def expand(state):
            # detlint: ignore[DET005] -- consumer sorts downstream
            return list(frontier(state))
        """
    )
    assert "DET005" not in codes(findings)
    assert "SUP002" not in codes(findings)
    suppressed = [f for f in findings if f.suppressed]
    assert [f.rule for f in suppressed] == ["DET005"]
    assert suppressed[0].suppression_reason == "consumer sorts downstream"


def test_new_rules_reasonless_pragma_raises_sup001() -> None:
    findings = analyze(
        """
        def frontier(state):
            return {v for v in state}

        def expand(state):
            return list(frontier(state))  # detlint: ignore[DET005]
        """
    )
    assert codes(findings) == {"DET005", "SUP001"}


def test_project_findings_baseline_round_trip(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    (tmp_path / "pyproject.toml").write_text(
        '[tool.detlint]\npaths = ["src"]\n'
        'baseline = "detlint-baseline.json"\n'
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(
        textwrap.dedent(
            """
            def frontier(state):
                return {v for v in state}

            def expand(state):
                return list(frontier(state))
            """
        )
    )
    monkeypatch.chdir(tmp_path)
    assert main(["src"]) == 1
    assert main(["src", "--update-baseline"]) == 0
    document = json.loads((tmp_path / "detlint-baseline.json").read_text())
    assert [
        entry["rule"] for entry in document["findings"].values()
    ] == ["DET005"]
    assert main(["src"]) == 0
    assert main(["src", "--no-baseline"]) == 1


# ---------------------------------------------------------------------------
# Determinism and the summary cache


def project_tree(tmp_path: Path) -> Path:
    (tmp_path / "pyproject.toml").write_text(
        '[tool.detlint]\npaths = ["src"]\nbaseline = ""\n'
        'cache = ".detlint-cache.json"\n'
        "[tool.detlint.rules.PURE001]\n"
        'entrypoints = ["plan_cost"]\n'
    )
    src = tmp_path / "src"
    src.mkdir()
    (src / "impure.py").write_text(
        textwrap.dedent(
            """
            import random

            def jitter():
                return random.random()

            def plan_cost(order):
                return jitter()
            """
        )
    )
    (src / "clean.py").write_text("def double(x):\n    return 2 * x\n")
    return tmp_path


def run_project(root: Path, use_cache: bool | None = None):
    from repro.analysis.config import load_config

    config = load_config(start=str(root))
    analyzer = Analyzer(config, baseline=None, use_cache=use_cache)
    return analyzer.run()


def test_reports_are_byte_identical_across_runs(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    first = run_project(root, use_cache=False)
    second = run_project(root, use_cache=False)
    assert render_json(first) == render_json(second)
    assert render_sarif(first) == render_sarif(second)


def test_warm_cache_reproduces_cold_findings_exactly(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    cold = run_project(root)
    assert cold.cache_misses == 2 and cold.cache_hits == 0
    assert (root / ".detlint-cache.json").is_file()
    warm = run_project(root)
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    assert render_json(warm) == render_json(cold)
    assert render_sarif(warm) == render_sarif(cold)
    # DET001 anchors at the direct random.random() call; PURE001 is the
    # interprocedural finding the cache must reproduce from summaries.
    assert sorted(f.rule for f in warm.unsuppressed) == [
        "DET001",
        "PURE001",
    ]


def test_cache_invalidates_on_content_change(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    run_project(root)
    (root / "src" / "clean.py").write_text(
        "def double(x):\n    return x + x\n"
    )
    result = run_project(root)
    assert result.cache_hits == 1  # impure.py unchanged
    assert result.cache_misses == 1  # clean.py re-analyzed


def test_cache_invalidates_on_config_change(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    run_project(root)
    pyproject = root / "pyproject.toml"
    pyproject.write_text(
        pyproject.read_text().replace(
            'entrypoints = ["plan_cost"]',
            'entrypoints = ["plan_cost", "extend_state"]',
        )
    )
    result = run_project(root)
    assert result.cache_hits == 0 and result.cache_misses == 2


def test_cache_ignores_corrupt_file(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    reference = run_project(root, use_cache=False)
    (root / ".detlint-cache.json").write_text("{not json")
    result = run_project(root)
    assert result.cache_misses == 2
    assert render_json(result) == render_json(reference)


# ---------------------------------------------------------------------------
# SARIF rendering


def test_sarif_document_shape(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    document = json.loads(render_sarif(run_project(root, use_cache=False)))
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "detlint"
    rule_ids = {rule["id"] for rule in driver["rules"]}
    assert {
        "PURE001",
        "DET005",
        "RACE001",
        "ASYNC001",
        "EXC002",
        "SUP001",
    } <= rule_ids
    (result,) = [
        r for r in run["results"] if r["ruleId"] == "PURE001"
    ]
    assert result["level"] == "error"
    assert result["partialFingerprints"]["detlint/v1"]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/impure.py"
    assert location["region"]["startLine"] >= 1


def test_sarif_marks_suppressed_findings(tmp_path: Path) -> None:
    root = project_tree(tmp_path)
    impure = root / "src" / "impure.py"
    impure.write_text(
        impure.read_text().replace(
            "    return jitter()",
            "    # detlint: ignore[PURE001] -- fixture demonstrates SARIF\n"
            "    return jitter()",
        )
    )
    document = json.loads(render_sarif(run_project(root, use_cache=False)))
    (run,) = document["runs"]
    suppressed = [r for r in run["results"] if "suppressions" in r]
    assert suppressed
    entry = suppressed[0]["suppressions"][0]
    assert entry["kind"] == "inSource"
    assert entry["justification"] == "fixture demonstrates SARIF"
