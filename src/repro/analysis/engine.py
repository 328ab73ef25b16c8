"""The analyzer: discover files, run the rules on each, apply pragmas.

One :class:`Analyzer` run is deterministic end to end (fitting, for this
package): files are discovered in sorted order, rules run in registry
order, and findings are sorted by location before anything downstream
sees them — so reports and exit codes never depend on filesystem
enumeration order.

Every file is checked on its own, in one pass: parse it, run each rule
the configuration applies to its path, then let the line pragmas mark
findings suppressed and raise the SUP001/SUP002 hygiene findings.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.analysis.config import DEFAULT_PATHS, DetlintConfig
from repro.analysis.findings import Finding
from repro.analysis.rules import RULES, ImportMap
from repro.analysis.suppressions import apply_suppressions, parse_suppressions

#: Engine-level rule code for files the parser rejects.
PARSE_ERROR = "SYN001"


@dataclass
class ModuleContext:
    """Everything a rule may look at for one module."""

    rel_path: str  # POSIX-style, relative to the project root
    lines: list[str]
    tree: ast.Module
    imports: ImportMap
    config: DetlintConfig


@dataclass
class AnalysisResult:
    """Everything one run produced, pre-sorted and classified."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0

    @property
    def unsuppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.counts]

    @property
    def suppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def _discover(paths: Iterable[str], root: str) -> list[str]:
    """All ``.py`` files under ``paths`` (absolute, sorted, de-duplicated)."""
    found: set[str] = set()
    for entry in paths:
        absolute = (
            entry if os.path.isabs(entry) else os.path.join(root, entry)
        )
        if os.path.isfile(absolute):
            if absolute.endswith(".py"):
                found.add(os.path.abspath(absolute))
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(
                name
                for name in dirnames
                if not name.startswith(".") and name != "__pycache__"
            )
            for filename in filenames:
                if filename.endswith(".py"):
                    found.add(os.path.abspath(os.path.join(dirpath, filename)))
    return sorted(found)


class Analyzer:
    """Run the rule library over a file set under one configuration."""

    def __init__(self, config: DetlintConfig) -> None:
        self.config = config

    def _rel_path(self, path: str) -> str:
        rel = os.path.relpath(os.path.abspath(path), self.config.root)
        return rel.replace(os.sep, "/")

    def check_source(self, source: str, rel_path: str) -> list[Finding]:
        """Analyze one in-memory module (the unit the fixture tests use)."""
        lines = source.splitlines()
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [
                Finding(
                    rule=PARSE_ERROR,
                    path=rel_path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                    snippet=(exc.text or "").strip(),
                )
            ]
        ctx = ModuleContext(
            rel_path=rel_path,
            lines=lines,
            tree=tree,
            imports=ImportMap(tree),
            config=self.config,
        )
        raw: list[Finding] = []
        for rule in RULES:
            if self.config.rule_applies(rule.code, rel_path):
                raw.extend(rule.check(ctx))
        outcome = apply_suppressions(
            rel_path, lines, raw, parse_suppressions(lines)
        )
        findings = outcome.findings + outcome.hygiene
        return sorted(findings, key=lambda f: (f.line, f.column, f.rule))

    def check_file(self, path: str) -> list[Finding]:
        rel_path = self._rel_path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            return [
                Finding(
                    rule=PARSE_ERROR,
                    path=rel_path,
                    line=1,
                    column=0,
                    message=f"file is unreadable: {exc}",
                    snippet="",
                )
            ]
        return self.check_source(source, rel_path)

    def run(self, paths: Sequence[str] | None = None) -> AnalysisResult:
        """Analyze ``paths`` (default: :data:`~repro.analysis.config.DEFAULT_PATHS`)."""
        files = _discover(paths or DEFAULT_PATHS, self.config.root)
        findings = [
            finding for path in files for finding in self.check_file(path)
        ]
        findings.sort(key=lambda f: (f.path, f.line, f.column, f.rule))
        return AnalysisResult(findings=findings, files_checked=len(files))
