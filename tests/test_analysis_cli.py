"""End-to-end tests for the detlint CLI, its rule table and suppressions.

These drive ``repro.analysis.cli.main`` against small throwaway projects
(a ``pyproject.toml`` marking the root plus a ``src/`` tree in tmp_path),
so exit codes and report formats are exercised exactly the way CI
invokes them.  The last section is the meta-check: the analyzer must run
clean over this repository's real ``src/`` tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.config import DetlintConfig, project_config
from repro.analysis.engine import Analyzer
from repro.analysis.reporting import render_json

from .conftest import documented_exit_codes

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Marks the throwaway project's root; detlint reads nothing from it.
PYPROJECT_MINIMAL = """\
[project]
name = "fixture"
"""

DIRTY_MODULE = """\
import random


def pick(items):
    return random.choice(items)
"""

CLEAN_MODULE = """\
def pick(items, rng):
    return rng.choice(items)
"""


@pytest.fixture()
def project(tmp_path: Path, monkeypatch: pytest.MonkeyPatch) -> Path:
    (tmp_path / "pyproject.toml").write_text(PYPROJECT_MINIMAL)
    (tmp_path / "src").mkdir()
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_module(project: Path, source: str, name: str = "mod.py") -> Path:
    target = project / "src" / name
    target.write_text(source)
    return target


# ---------------------------------------------------------------------------
# Exit codes and reports


def test_open_finding_exits_one(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(project, DIRTY_MODULE)
    assert main(["src"]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out
    assert "src/mod.py:5:" in out  # file:line output


def test_clean_tree_exits_zero(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(project, CLEAN_MODULE)
    assert main(["src"]) == 0
    assert "0 open finding(s)" in capsys.readouterr().out


def test_json_report_is_machine_readable(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(project, DIRTY_MODULE)
    assert main(["src", "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    (finding,) = [
        f for f in document["findings"] if f["status"] == "open"
    ]
    assert finding["rule"] == "DET001"
    assert finding["path"] == "src/mod.py"
    assert finding["line"] == 5


def test_reports_are_byte_identical_across_runs(project: Path) -> None:
    write_module(project, DIRTY_MODULE, "dirty.py")
    write_module(project, CLEAN_MODULE, "clean.py")
    config = project_config(str(project))
    first = Analyzer(config).run()
    second = Analyzer(config).run()
    assert first.files_checked == 2
    assert render_json(first) == render_json(second)


def test_list_rules_prints_all_codes(
    capsys: pytest.CaptureFixture[str],
) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.splitlines()] == [
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "EXC001",
        "SUP001",
        "SUP002",
    ]


# ---------------------------------------------------------------------------
# Exit-code contract: docs/static-analysis.md is the source of truth


def test_docs_enumerate_exactly_the_three_exit_codes() -> None:
    table = documented_exit_codes("static-analysis.md")
    assert set(table) == {0, 1, 2}
    assert "open finding" in table[1]
    assert "usage" in table[2]


def test_exit_codes_match_docs(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    """Drive main() into each documented state; codes must line up."""
    assert set(documented_exit_codes("static-analysis.md")) == {0, 1, 2}
    write_module(project, CLEAN_MODULE)
    assert main(["src"]) == 0  # clean
    write_module(project, DIRTY_MODULE)
    assert main(["src"]) == 1  # open finding
    assert main(["nonexistent-path"]) == 2  # usage error
    capsys.readouterr()


# ---------------------------------------------------------------------------
# Suppression round-trip


def test_suppression_with_reason_silences_finding(project: Path) -> None:
    write_module(
        project,
        textwrap.dedent(
            """\
            import random


            def pick(items):
                return random.choice(items)  # detlint: ignore[DET001] -- demo fixture
            """
        ),
    )
    assert main(["src"]) == 0


def test_suppression_without_reason_raises_sup001(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(
        project,
        textwrap.dedent(
            """\
            import random


            def pick(items):
                return random.choice(items)  # detlint: ignore[DET001]
            """
        ),
    )
    assert main(["src"]) == 1
    out = capsys.readouterr().out
    assert "SUP001" in out
    assert "DET001" in out  # the reasonless pragma does not suppress


def test_unused_suppression_raises_sup002(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(
        project,
        "x = 1  # detlint: ignore[DET001] -- nothing here to suppress\n",
    )
    assert main(["src"]) == 1
    assert "SUP002" in capsys.readouterr().out


def test_standalone_comment_suppresses_next_line(project: Path) -> None:
    write_module(
        project,
        textwrap.dedent(
            """\
            import random


            def pick(items):
                # detlint: ignore[DET001] -- fixture exercises forward binding
                return random.choice(items)
            """
        ),
    )
    assert main(["src"]) == 0


# ---------------------------------------------------------------------------
# Config


def test_include_restricts_and_allow_exempts() -> None:
    config = DetlintConfig(
        root="/nonexistent",
        rule_options={
            "DET003": {"include": ["src/repro/core"]},
            "DET002": {"allow": ["src/repro/core/budget.py"]},
        },
    )
    assert config.rule_applies("DET003", "src/repro/core/moves.py")
    assert not config.rule_applies("DET003", "src/repro/utils/graphs.py")
    assert not config.rule_applies("DET002", "src/repro/core/budget.py")
    assert config.rule_applies("DET002", "src/repro/core/moves.py")
    # A rule with no options applies everywhere.
    assert config.rule_applies("EXC001", "anything/at/all.py")


# ---------------------------------------------------------------------------
# Meta-check: this repository's own source tree


def test_real_src_tree_is_clean() -> None:
    """The invariant CI gates on: zero open findings over the real src/."""
    result = Analyzer(project_config(str(REPO_ROOT))).run()
    open_findings = [
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in result.unsuppressed
    ]
    assert not open_findings, "\n".join(open_findings)
    assert result.files_checked > 50  # the whole src tree, not a subset


def test_real_src_suppressions_all_carry_reasons() -> None:
    result = Analyzer(project_config(str(REPO_ROOT))).run()
    for finding in result.suppressed:
        assert finding.suppression_reason, (
            f"{finding.path}:{finding.line} suppressed without a reason"
        )
