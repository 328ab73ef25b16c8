"""Configuration: the one rule table detlint checks this repository with.

:data:`RULE_OPTIONS` is the whole configuration.  It is code, not a
setting: a change to what the linter checks is a reviewed edit of this
table.

All paths are POSIX-style and relative to the project root (the nearest
directory at or above the working directory that holds
``pyproject.toml``).  ``allow`` entries exempt a file or directory
subtree from a rule; ``include`` entries *restrict* a rule to the listed
subtrees (a rule with no ``include`` applies everywhere).  EXC001 has no
entry: it applies everywhere and is satisfied by ``# boundary: <why>``
annotations instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Mapping

#: What a run checks when it is given no paths.
DEFAULT_PATHS = ("src",)

RULE_OPTIONS: dict[str, dict[str, list[str]]] = {
    # The only module allowed to touch RNG machinery directly: everything
    # else receives an explicit random.Random derived via
    # derive_rng/derive_seed.
    "DET001": {"allow": ["src/repro/utils/rng.py"]},
    "DET002": {
        # The wall-clock budget and the profiler's wall-sidecar boundary
        # are the two sanctioned clock consumers; the sidecar records
        # timestamps beside the trace, never inside it.
        "allow": [
            "src/repro/core/budget.py",
            "src/repro/obs/wallclock.py",
        ],
        # Modules whose determinism contract *depends* on never reading
        # the clock (the trace layer stamps events with the logical
        # budget clock): a wall-clock finding here gets an escalated
        # message.
        "verified_clean": ["src/repro/obs"],
    },
    # Hash-order iteration only threatens the plan-producing subsystems
    # (and the trace layer, whose serialized output must be byte-stable).
    "DET003": {
        "include": [
            "src/repro/core",
            "src/repro/cost",
            "src/repro/obs",
            "src/repro/parallel",
        ]
    },
    "DET004": {"include": ["src/repro/parallel"]},
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
    """The root a run resolves paths against, and its rule options."""

    root: str  # absolute project root
    rule_options: Mapping[str, Mapping[str, Any]] = field(
        default_factory=dict
    )

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


def project_config(start: str = ".") -> DetlintConfig:
    """:data:`RULE_OPTIONS`, rooted at the project at or above ``start``."""
    return DetlintConfig(
        root=find_project_root(start), rule_options=RULE_OPTIONS
    )
