"""Reader CLI: ``python -m repro.obs profile|diff``.

``profile TRACE.jsonl`` folds the trace into the run header (the run's
parameters, event counts per kind, SA chains and mean acceptance,
best-cost updates) and the method → phase → move-kind attribution tree
(text, canonical JSON, or folded-stack lines for flamegraph tooling;
``--wall`` adds the wall-clock column from the ``TRACE.jsonl.wall``
sidecar); ``diff A.jsonl B.jsonl`` exits 0 when the traces are
bit-identical and 1 with a divergence report when they are not (the CI
determinism gate is literally this command).

Exit codes: 0 success, 1 traces differ (``diff`` only), 2 usage error —
a missing, empty, or malformed trace file always produces a one-line
``error:`` message on stderr and exit code 2, never a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from repro.obs.events import TraceFormatError
from repro.obs.profile import (
    collapsed_stacks,
    profile_events,
    profile_json,
    profile_report,
    render_profile,
)
from repro.obs.writer import diff_traces, iter_trace, read_trace

EXIT_OK = 0
EXIT_DIFFERS = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Read repro.obs trace files (JSONL).",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    diff = commands.add_parser(
        "diff", help="compare two traces event-by-event"
    )
    diff.add_argument("left", help="first trace file")
    diff.add_argument("right", help="second trace file")
    diff.add_argument(
        "--max-report",
        type=int,
        default=10,
        help="stop after this many reported differences (default: 10)",
    )

    profile = commands.add_parser(
        "profile",
        help="fold one trace into the run header and the budget "
        "attribution tree",
    )
    profile.add_argument("trace", help="path to a .jsonl trace file")
    profile.add_argument(
        "--format",
        choices=("text", "json", "collapsed"),
        default="text",
        help="output format: human tree, canonical JSON report, or "
        "folded-stack lines for flamegraph tooling",
    )
    profile.add_argument(
        "--wall",
        action="store_true",
        help="add the wall-clock column from the TRACE.wall sidecar "
        "(recorded by `repro optimize --trace ... --wall`)",
    )
    return parser


def _cmd_profile(args: argparse.Namespace) -> int:
    wall = None
    if args.wall:
        from repro.obs.wallclock import read_wall_sidecar, sidecar_path

        wall = read_wall_sidecar(sidecar_path(args.trace))
    with open(args.trace, "r", encoding="utf-8") as handle:
        profile = profile_events(iter_trace(handle), wall=wall)
    if args.format == "json":
        sys.stdout.write(profile_json(profile))
    elif args.format == "collapsed":
        for line in collapsed_stacks(profile_report(profile)):
            print(line)
    else:
        print(render_profile(profile))
    return EXIT_OK


def _cmd_diff(args: argparse.Namespace) -> int:
    differences = diff_traces(
        read_trace(args.left),
        read_trace(args.right),
        max_report=args.max_report,
    )
    if not differences:
        print("traces are identical")
        return EXIT_OK
    for line in differences:
        print(line)
    return EXIT_DIFFERS


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "profile":
            return _cmd_profile(args)
        return _cmd_diff(args)
    except BrokenPipeError:
        # Reader closed early (e.g. `profile trace | head`): not an
        # error.  Point stdout at devnull so the interpreter's exit
        # flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, TraceFormatError) as exc:
        # Unreadable path (missing, a directory, permission) or a file
        # that is not a trace: one-line diagnostic, defined exit code.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
