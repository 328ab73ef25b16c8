"""Configuration: ``[tool.detlint]`` in ``pyproject.toml``.

The loader prefers :mod:`tomllib` (Python 3.11+) and falls back to
``tomli`` when present.  On interpreters with neither (a bare 3.10
environment), it falls back to :data:`DEFAULT_TOOL_TABLE` — a built-in
copy of this repository's own ``[tool.detlint]`` table — so the analyzer
behaves identically everywhere without requiring an install.  A config
parity test asserts the built-in copy never drifts from ``pyproject.toml``.

All paths in the config are POSIX-style and relative to the project root
(the directory holding ``pyproject.toml``).  ``allow`` entries exempt a
file or directory subtree from a rule; ``include`` entries *restrict* a
rule to the listed subtrees (a rule with no ``include`` applies
everywhere).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

try:  # Python 3.11+
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - py3.10 path
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

#: Built-in copy of this repository's ``[tool.detlint]`` table, used when
#: no TOML parser is available.  Kept in lockstep with ``pyproject.toml``
#: by ``tests/test_analysis_cli.py::test_builtin_config_matches_pyproject``.
DEFAULT_TOOL_TABLE: dict[str, Any] = {
    "paths": ["src"],
    "baseline": "detlint-baseline.json",
    "cache": ".detlint-cache.json",
    "exclude": [],
    "rules": {
        "DET001": {"allow": ["src/repro/utils/rng.py"]},
        "DET002": {
            "allow": [
                "src/repro/core/budget.py",
                "src/repro/cost/calibration.py",
                "src/repro/obs/wallclock.py",
            ],
            "verified_clean": ["src/repro/obs"],
        },
        "DET003": {
            "include": [
                "src/repro/core",
                "src/repro/cost",
                "src/repro/obs",
                "src/repro/parallel",
            ]
        },
        "DET004": {"include": ["src/repro/parallel"]},
        "OVF001": {
            "include": ["src/repro/cost"],
            "guards": ["clamp_cardinality", "join_result_cardinality"],
            "bound_names": ["MAX_CARDINALITY"],
        },
        "PURE001": {
            "include": ["src/repro/core", "src/repro/cost"],
            "entrypoints": ["extend_state", "plan_cost"],
        },
        "DET005": {
            "include": [
                "src/repro/core",
                "src/repro/cost",
                "src/repro/obs",
                "src/repro/parallel",
            ]
        },
        "RACE001": {"include": ["src/repro/parallel"]},
        "EXC002": {
            "include": ["src/repro/core", "src/repro/cost"],
            "contracts": {
                "CostModel.plan_cost": [
                    "CostOverflowError",
                    "InjectedFault",
                    "ValueError",
                ],
                "cost.incremental.extend_state": ["CostOverflowError"],
                "core.optimizer.optimize": [
                    "BudgetExhausted",
                    "CostOverflowError",
                    "InjectedFault",
                    "KeyError",
                    "NoValidPlanError",
                    "PlanVerificationError",
                    "TypeError",
                    "ValueError",
                ],
            },
        },
    },
}


def _normalize(path: str) -> str:
    return path.replace(os.sep, "/").strip("/")


def path_matches(rel_path: str, prefixes: list[str]) -> bool:
    """True when ``rel_path`` is one of ``prefixes`` or inside one."""
    rel = _normalize(rel_path)
    for prefix in prefixes:
        pref = _normalize(prefix)
        if rel == pref or rel.startswith(pref + "/"):
            return True
    return False


@dataclass(frozen=True)
class DetlintConfig:
    """Resolved configuration for one analyzer run."""

    root: str  # absolute project root
    paths: tuple[str, ...] = ("src",)
    baseline: str | None = "detlint-baseline.json"
    #: Summary-cache path (relative to root); None disables caching.
    cache: str | None = ".detlint-cache.json"
    exclude: tuple[str, ...] = ()
    rule_options: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )
    #: Where the table came from: "pyproject", "builtin", or "explicit".
    source: str = "builtin"

    def options_for(self, rule_code: str) -> Mapping[str, Any]:
        return self.rule_options.get(rule_code, {})

    def rule_applies(self, rule_code: str, rel_path: str) -> bool:
        """Apply per-rule ``include`` (restrict) and ``allow`` (exempt)."""
        options = self.options_for(rule_code)
        include = list(options.get("include", []))
        if include and not path_matches(rel_path, include):
            return False
        allow = list(options.get("allow", []))
        if allow and path_matches(rel_path, allow):
            return False
        return True


class ConfigError(ValueError):
    """The ``[tool.detlint]`` table is malformed."""


def find_project_root(start: str) -> str:
    """Walk upward from ``start`` to the nearest ``pyproject.toml``."""
    current = os.path.abspath(start)
    while True:
        if os.path.isfile(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return os.path.abspath(start)
        current = parent


def _read_tool_table(pyproject_path: str) -> dict[str, Any] | None:
    """The ``[tool.detlint]`` table, or None when unreadable/absent."""
    if _toml is None or not os.path.isfile(pyproject_path):
        return None
    with open(pyproject_path, "rb") as handle:
        try:
            document = _toml.load(handle)
        except _toml.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML in {pyproject_path}: {exc}")
    table = document.get("tool", {}).get("detlint")
    if table is None:
        return None
    if not isinstance(table, dict):
        raise ConfigError("[tool.detlint] must be a table")
    return table


def config_from_table(
    table: Mapping[str, Any], root: str, source: str
) -> DetlintConfig:
    """Validate and freeze one ``[tool.detlint]`` table."""
    known = {"paths", "baseline", "cache", "exclude", "rules"}
    unknown = sorted(set(table) - known)
    if unknown:
        raise ConfigError(
            f"unknown [tool.detlint] keys: {', '.join(unknown)}"
        )
    paths = table.get("paths", ["src"])
    if not isinstance(paths, list) or not all(
        isinstance(p, str) for p in paths
    ):
        raise ConfigError("[tool.detlint] paths must be a list of strings")
    baseline = table.get("baseline", "detlint-baseline.json")
    if baseline is not None and not isinstance(baseline, str):
        raise ConfigError("[tool.detlint] baseline must be a string")
    cache = table.get("cache", ".detlint-cache.json")
    if cache is not None and not isinstance(cache, str):
        raise ConfigError("[tool.detlint] cache must be a string")
    if cache == "":  # TOML has no null: empty string disables caching
        cache = None
    exclude = table.get("exclude", [])
    if not isinstance(exclude, list) or not all(
        isinstance(p, str) for p in exclude
    ):
        raise ConfigError("[tool.detlint] exclude must be a list of strings")
    rules = table.get("rules", {})
    if not isinstance(rules, dict):
        raise ConfigError("[tool.detlint.rules] must be a table")
    rule_options: dict[str, dict[str, Any]] = {}
    for code, options in rules.items():
        if not isinstance(options, dict):
            raise ConfigError(f"[tool.detlint.rules.{code}] must be a table")
        rule_options[str(code)] = dict(options)
    return DetlintConfig(
        root=os.path.abspath(root),
        paths=tuple(paths),
        baseline=baseline,
        cache=cache,
        exclude=tuple(exclude),
        rule_options=rule_options,
        source=source,
    )


def load_config(
    start: str = ".", explicit_pyproject: str | None = None
) -> DetlintConfig:
    """Load the config for a run rooted at (or above) ``start``.

    ``explicit_pyproject`` pins the file (CLI ``--config``); otherwise the
    nearest ``pyproject.toml`` above ``start`` is used, and the built-in
    table is the fallback when no TOML parser or no table is available.
    """
    if explicit_pyproject is not None:
        root = os.path.dirname(os.path.abspath(explicit_pyproject)) or "."
        table = _read_tool_table(explicit_pyproject)
        if table is None:
            raise ConfigError(
                f"no readable [tool.detlint] table in {explicit_pyproject}"
                + ("" if _toml is not None else " (no TOML parser available)")
            )
        return config_from_table(table, root, "explicit")
    root = find_project_root(start)
    table = _read_tool_table(os.path.join(root, "pyproject.toml"))
    if table is not None:
        return config_from_table(table, root, "pyproject")
    return config_from_table(DEFAULT_TOOL_TABLE, root, "builtin")
