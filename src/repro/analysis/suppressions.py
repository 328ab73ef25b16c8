"""Line suppressions: ``# detlint: ignore[RULE] -- reason``.

A suppression silences the named rule(s) on one line.  Two placements
are recognised:

* trailing, on the offending line itself::

      started = time.time()  # detlint: ignore[DET002] -- log stamp only

* standalone, as a comment line attaching to the next code line::

      # detlint: ignore[DET003] -- order folded by a commutative reduce
      for item in candidates:

The reason after ``--`` is **mandatory**: a reasonless pragma suppresses
nothing and instead raises SUP001, so "shut it up" never outlives the
reviewer who would have asked why.  A pragma that matches no finding
raises SUP002, so stale suppressions are flushed instead of rotting.

``ignore[*]`` suppresses every rule on the line (reason still required).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field, replace

from repro.analysis.findings import Finding

SUPPRESSION_PATTERN = re.compile(
    r"#\s*detlint:\s*ignore\[(?P<codes>[A-Za-z0-9*,\s]+)\]"
    r"(?:\s*--\s*(?P<reason>.*\S))?\s*$"
)

#: Engine-level rule codes for suppression hygiene.
MISSING_REASON = "SUP001"
UNUSED_SUPPRESSION = "SUP002"


@dataclass
class Suppression:
    """One parsed pragma and the line(s) it governs."""

    line: int  # line the pragma is written on (1-based)
    target_line: int  # line whose findings it suppresses
    codes: frozenset[str]  # upper-cased rule codes; "*" means all
    reason: str | None
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        if finding.line != self.target_line:
            return False
        return "*" in self.codes or finding.rule in self.codes


def _is_comment_line(stripped: str) -> bool:
    return stripped.startswith("#")


def _comment_lines(lines: list[str]) -> list[int]:
    """1-based line numbers carrying a real COMMENT token.

    Tokenizing (rather than regexing raw lines) keeps pragmas quoted in
    docstrings and string literals from being parsed as suppressions.
    A file that fails to tokenize contributes no comments — the engine
    reports the parse failure separately.
    """
    source = "\n".join(lines) + "\n"
    numbers: list[int] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                numbers.append(token.start[0])
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return numbers


def parse_suppressions(lines: list[str]) -> list[Suppression]:
    """All pragmas in a file, with standalone comments bound forward.

    A standalone-comment pragma attaches to the next non-blank,
    non-comment line; a trailing pragma attaches to its own line.
    """
    suppressions: list[Suppression] = []
    for index in _comment_lines(lines):
        raw = lines[index - 1]
        match = SUPPRESSION_PATTERN.search(raw)
        if match is None:
            continue
        codes = frozenset(
            code.strip().upper()
            for code in match.group("codes").split(",")
            if code.strip()
        )
        reason = match.group("reason")
        target = index
        if _is_comment_line(raw.strip()):
            for forward in range(index, len(lines)):
                candidate = lines[forward].strip()
                if candidate and not _is_comment_line(candidate):
                    target = forward + 1
                    break
        suppressions.append(
            Suppression(
                line=index, target_line=target, codes=codes, reason=reason
            )
        )
    return suppressions


@dataclass
class SuppressionOutcome:
    """Findings after suppression, plus the hygiene findings it raised."""

    findings: list[Finding] = field(default_factory=list)
    hygiene: list[Finding] = field(default_factory=list)


def apply_suppressions(
    rel_path: str,
    lines: list[str],
    findings: list[Finding],
    suppressions: list[Suppression],
) -> SuppressionOutcome:
    """Mark suppressed findings; emit SUP001/SUP002 hygiene findings."""
    outcome = SuppressionOutcome()
    for finding in findings:
        covering = None
        for suppression in suppressions:
            if suppression.covers(finding):
                covering = suppression
                break
        if covering is None:
            outcome.findings.append(finding)
        elif covering.reason is None:
            # A reasonless pragma does NOT suppress; SUP001 is raised once
            # per pragma below, and the original finding stands.
            outcome.findings.append(finding)
        else:
            covering.used = True
            outcome.findings.append(
                replace(
                    finding, suppressed=True, suppression_reason=covering.reason
                )
            )
    for suppression in suppressions:
        snippet = lines[suppression.line - 1].strip()
        if suppression.reason is None:
            outcome.hygiene.append(
                Finding(
                    rule=MISSING_REASON,
                    path=rel_path,
                    line=suppression.line,
                    column=0,
                    message=(
                        "suppression has no reason; write "
                        "'# detlint: ignore[RULE] -- why it is safe'"
                    ),
                    snippet=snippet,
                )
            )
        elif not suppression.used:
            outcome.hygiene.append(
                Finding(
                    rule=UNUSED_SUPPRESSION,
                    path=rel_path,
                    line=suppression.line,
                    column=0,
                    message=(
                        "suppression matches no finding on its target "
                        "line; delete it or fix the rule code"
                    ),
                    snippet=snippet,
                )
            )
    return outcome
