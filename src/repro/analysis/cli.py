"""The ``python -m repro.analysis`` command line.

Exit codes follow the repo convention of small stable integers:

* ``0`` — clean: no open findings;
* ``1`` — open findings;
* ``2`` — usage error (an unknown flag, a path that does not exist).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.analysis.config import project_config
from repro.analysis.engine import Analyzer
from repro.analysis.reporting import render_json, render_text
from repro.analysis.rules import RULES

USAGE_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "detlint: statically enforce the determinism and "
            "exception-boundary invariants"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule library and exit",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="also show suppressed findings (text format)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.name}: {rule.description}")
        print(
            "SUP001  missing-reason: detlint pragmas must carry "
            "'-- <reason>' (engine-level)"
        )
        print(
            "SUP002  unused-suppression: pragmas must match a finding "
            "(engine-level)"
        )
        return 0

    config = project_config(os.getcwd())
    missing = [
        entry
        for entry in args.paths
        if not os.path.exists(
            entry if os.path.isabs(entry) else os.path.join(config.root, entry)
        )
    ]
    if missing:
        print(
            f"detlint: path(s) not found: {', '.join(missing)}",
            file=sys.stderr,
        )
        return USAGE_ERROR

    result = Analyzer(config).run(args.paths)
    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code
