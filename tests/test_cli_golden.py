"""Golden CLI output: default-flag stdout stays byte-identical.

Each case runs :func:`repro.cli.main` in-process and compares its stdout
with ``tests/fixtures/cli/<case>.txt``.  A change that means to leave
behaviour alone must leave every file as it is.  A change that means to
move an output rewrites the files (see ``docs/testing.md``)::

    PYTHONPATH=src python tests/test_cli_golden.py --rewrite

The ``sql`` cases are the only CLI path into the disconnected-graph code:
their query has three components (``a-b-c``, ``d-e`` and ``f``).
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "cli"
CATALOG = str(FIXTURES / "catalog.json")
SQL = (
    "SELECT * FROM a, b, c, d, e, f "
    "WHERE a.x = b.x AND b.y = c.y AND d.z = e.z"
)

CASES: dict[str, list[str]] = {
    "optimize-j10-s7": ["optimize", "--joins", "10", "--seed", "7"],
    "optimize-j12-s3-sa-disk": [
        "optimize", "--joins", "12", "--seed", "3", "--method", "SA",
        "--model", "disk",
    ],
    "optimize-j8-s5-exact-explain": [
        "optimize", "--joins", "8", "--seed", "5", "--method", "EXACT",
        "--explain",
    ],
    "optimize-j20-s2-exact-large": [
        "optimize", "--joins", "20", "--seed", "2", "--method", "EXACT",
    ],
    "optimize-j10-s7-resilient": [
        "optimize", "--joins", "10", "--seed", "7", "--resilient",
    ],
    "optimize-j12-s4-ii-w2-r4": [
        "optimize", "--joins", "12", "--seed", "4", "--method", "II",
        "--workers", "2", "--restarts", "4",
    ],
    "compare-j8": [
        "compare", "--joins", "8", "--time-factor", "1", "--methods",
        "II", "SA", "IAI", "EXACT",
    ],
    "exact-j10-s7": ["exact", "--joins", "10", "--seed", "7"],
    "gap-j8-s7": [
        "gap", "--joins", "8", "--seed", "7", "--time-factor", "1",
        "--methods", "II", "AGI",
    ],
    # Above --max-exact: the gaps anchor on the best plan found, and
    # the output says so.
    "gap-j8-s7-max-exact-4": [
        "gap", "--joins", "8", "--seed", "7", "--time-factor", "1",
        "--methods", "II", "AGI", "--max-exact", "4",
    ],
    # Above 21 relations, where swaps draw as ``random.sample``'s set
    # branch does.
    "optimize-j30-s5-sa-disk-w2-r8": [
        "optimize", "--joins", "30", "--seed", "5", "--method", "SA",
        "--model", "disk", "--workers", "2", "--restarts", "8",
    ],
    "optimize-j40-s3-iai": [
        "optimize", "--joins", "40", "--seed", "3", "--method", "IAI",
    ],
}
for _method in ("EXACT", "IAI"):
    for _model in ("memory", "disk"):
        CASES[f"sql-{_method.lower()}-{_model}"] = [
            "sql", SQL, "--catalog", CATALOG, "--method", _method,
            "--model", _model, "--explain",
        ]


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, (argv, code)
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_file(case):
    expected = (FIXTURES / f"{case}.txt").read_text(encoding="utf-8")
    assert _stdout(CASES[case]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: python tests/test_cli_golden.py --rewrite")
    for case, argv in sorted(CASES.items()):
        (FIXTURES / f"{case}.txt").write_text(_stdout(argv), encoding="utf-8")
        print(f"wrote {case}.txt")
