"""Finding and Rule: the vocabulary shared by the engine and the rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.analysis.engine import ModuleContext


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  # POSIX-style, relative to the project root
    line: int  # 1-based
    column: int  # 0-based, as reported by ast
    message: str
    snippet: str  # the stripped source line, for reports
    #: Set by the engine, never by rules:
    suppressed: bool = False
    suppression_reason: str | None = None

    @property
    def counts(self) -> bool:
        """Whether this finding should fail the run."""
        return not self.suppressed

    def located(self) -> str:
        return f"{self.path}:{self.line}:{self.column + 1}"


@dataclass
class Rule:
    """Base class for AST rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding findings for one parsed module.  Rules never see
    suppressions — the engine applies those afterwards, so every rule
    stays a pure function of the source tree.
    """

    code: str = "RULE000"
    name: str = "unnamed"
    description: str = ""

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    # -- helpers shared by the concrete rules ---------------------------

    def finding(
        self, ctx: "ModuleContext", node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(ctx.lines):
            snippet = ctx.lines[line - 1].strip()
        return Finding(
            rule=self.code,
            path=ctx.rel_path,
            line=line,
            column=column,
            message=message,
            snippet=snippet,
        )
