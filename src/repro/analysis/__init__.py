"""detlint — an AST-level invariant linter for the reproduction codebase.

The repo's headline guarantee is *bit-identical determinism*: incremental
delta costing equals full ``plan_cost`` and ``workers=N`` equals
``workers=1``.  The differential tests enforce that guarantee
dynamically, on the paths they sample.  This package enforces it
*statically*: every source file is parsed and checked, on its own,
against a rule library that rejects the constructs from which
nondeterminism and swallowed failures actually arise — so the
violations cannot be written, rather than merely usually caught.

Rules shipped:

========  ==============================================================
DET001    no unseeded RNG outside ``repro.utils.rng``
DET002    no wall-clock reads outside the budget/wall-sidecar allowlist
DET003    no ordered consumption of bare ``set``/``dict.keys()``/tainted
          unordered names
DET004    pool-dispatched callables must be module-level and closure-free
EXC001    broad ``except`` only at annotated robustness boundaries
SUP001    ``detlint: ignore`` pragmas must carry a reason (engine-level)
SUP002    ``detlint: ignore`` pragmas must match a finding (engine-level)
========  ==============================================================

Run it with ``python -m repro.analysis src/``.  The rule table is the
``RULE_OPTIONS`` constant in :mod:`repro.analysis.config`; per-line
suppressions use ``# detlint: ignore[RULE] -- reason``, and reports come
in text and JSON (``--format json``).
"""

from __future__ import annotations

from repro.analysis.config import DetlintConfig, project_config
from repro.analysis.engine import AnalysisResult, Analyzer, ModuleContext
from repro.analysis.findings import Finding, Rule
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULES, rule_registry

__all__ = [
    "AnalysisResult",
    "Analyzer",
    "DetlintConfig",
    "Finding",
    "ModuleContext",
    "RULES",
    "Rule",
    "project_config",
    "render_json",
    "render_text",
    "rule_registry",
]
