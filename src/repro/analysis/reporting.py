"""Reporters: human-readable text and machine-readable JSON.

Both render the same :class:`~repro.analysis.engine.AnalysisResult`;
both are deterministic (findings arrive pre-sorted from the engine and
JSON keys are emitted sorted), so report diffs track code diffs — the
determinism test asserts two runs produce byte-identical JSON.
"""

from __future__ import annotations

import json

from repro.analysis.engine import AnalysisResult
from repro.analysis.findings import Finding
from repro.analysis.rules import RULES

REPORT_VERSION = 1


def _status(finding: Finding) -> str:
    return "suppressed" if finding.suppressed else "open"


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    """The text report: one ``file:line:col CODE message`` per finding."""
    lines: list[str] = []
    for finding in result.findings:
        if not finding.counts and not verbose:
            continue
        marker = " [suppressed]" if finding.suppressed else ""
        lines.append(
            f"{finding.located()}: {finding.rule}{marker} {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
        if verbose and finding.suppression_reason:
            lines.append(f"    reason: {finding.suppression_reason}")
    lines.append(
        f"{result.files_checked} file(s) checked, "
        f"{len(result.unsuppressed)} open finding(s), "
        f"{len(result.suppressed)} suppressed"
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    """The JSON report (stable key order, trailing newline)."""
    document = {
        "version": REPORT_VERSION,
        "files_checked": result.files_checked,
        "ok": result.ok,
        "rules": [rule.code for rule in RULES],
        "summary": {
            "open": len(result.unsuppressed),
            "suppressed": len(result.suppressed),
        },
        "findings": [
            {
                "rule": finding.rule,
                "path": finding.path,
                "line": finding.line,
                "column": finding.column + 1,
                "message": finding.message,
                "snippet": finding.snippet,
                "status": _status(finding),
                "suppression_reason": finding.suppression_reason,
            }
            for finding in result.findings
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
