"""End-to-end tests for the detlint CLI, config, suppressions, baseline.

These drive ``repro.analysis.cli.main`` against small throwaway projects
(a ``pyproject.toml`` plus a ``src/`` tree in tmp_path), so exit codes,
report formats, and the baseline workflow are all exercised exactly the
way CI invokes them.  The last section is the meta-check: the analyzer
must run clean over this repository's real ``src/`` tree.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.baseline import Baseline
from repro.analysis.cli import main
from repro.analysis.config import (
    DEFAULT_TOOL_TABLE,
    ConfigError,
    DetlintConfig,
    config_from_table,
    load_config,
)
from repro.analysis.engine import Analyzer

REPO_ROOT = Path(__file__).resolve().parents[1]

PYPROJECT_MINIMAL = """\
[tool.detlint]
paths = ["src"]
baseline = "detlint-baseline.json"
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


def test_config_error_exits_two(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    (project / "pyproject.toml").write_text(
        "[tool.detlint]\nunknown_key = true\n"
    )
    assert main(["src"]) == 2
    assert "configuration error" in capsys.readouterr().err


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
    assert finding["fingerprint"]


def test_list_rules_prints_all_codes(
    capsys: pytest.CaptureFixture[str],
) -> None:
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in (
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "DET005",
        "EXC001",
        "EXC002",
        "OVF001",
        "PURE001",
        "RACE001",
        "ASYNC001",
        "SUP001",
        "SUP002",
    ):
        assert code in out


def test_sarif_report_through_main(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(project, DIRTY_MODULE)
    assert main(["src", "--format", "sarif"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == "2.1.0"
    (run,) = document["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "DET001"
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]
    assert uri["uri"] == "src/mod.py"


# ---------------------------------------------------------------------------
# Exit-code contract: docs/static-analysis.md is the source of truth


def documented_exit_codes() -> dict[int, str]:
    """Parse the exit-code table out of the user-facing docs."""
    doc = (REPO_ROOT / "docs" / "static-analysis.md").read_text()
    table: dict[int, str] = {}
    for line in doc.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].strip("`").isdigit():
            table[int(cells[0].strip("`"))] = cells[1]
    return table


def test_docs_enumerate_exactly_the_three_exit_codes() -> None:
    table = documented_exit_codes()
    assert set(table) == {0, 1, 2}
    assert "open finding" in table[1]
    assert "configuration" in table[2]


def test_exit_codes_match_docs(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    """Drive main() into each documented state; codes must line up."""
    assert set(documented_exit_codes()) == {0, 1, 2}
    write_module(project, CLEAN_MODULE)
    assert main(["src"]) == 0  # clean
    write_module(project, DIRTY_MODULE)
    assert main(["src"]) == 1  # open finding
    assert main(["nonexistent-path"]) == 2  # usage error
    capsys.readouterr()


def test_exit_code_is_stable_on_the_cache_hit_path(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    """A warm (summary-cache) rerun must report byte-identical results.

    The project fixture leaves caching at its default (enabled), so the
    first ``main()`` populates ``.detlint-cache.json`` and the second
    run takes the cache-hit path end to end.
    """
    write_module(project, DIRTY_MODULE)
    assert main(["src", "--format", "json"]) == 1
    cold = capsys.readouterr().out
    assert (project / ".detlint-cache.json").is_file()
    assert main(["src", "--format", "json"]) == 1
    warm = capsys.readouterr().out
    assert warm == cold
    # And the clean tree stays exit 0 across cold and warm runs too.
    write_module(project, CLEAN_MODULE)
    assert main(["src"]) == 0
    assert main(["src"]) == 0


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
# Baseline round-trip


def test_write_baseline_then_rerun_is_clean(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(project, DIRTY_MODULE)
    assert main(["src", "--write-baseline"]) == 0
    capsys.readouterr()

    document = json.loads((project / "detlint-baseline.json").read_text())
    assert document["version"] == 1
    assert len(document["findings"]) == 1

    assert main(["src"]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # --no-baseline reveals the grandfathered finding again.
    assert main(["src", "--no-baseline"]) == 1


def test_update_baseline_is_an_alias_for_write_baseline(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    write_module(project, DIRTY_MODULE)
    assert main(["src", "--update-baseline"]) == 0
    capsys.readouterr()
    written = (project / "detlint-baseline.json").read_text()
    assert main(["src", "--write-baseline"]) == 0
    capsys.readouterr()
    assert (project / "detlint-baseline.json").read_text() == written
    assert main(["src"]) == 0


def test_baseline_survives_line_shifts(project: Path) -> None:
    target = write_module(project, DIRTY_MODULE)
    assert main(["src", "--write-baseline"]) == 0
    # Push the finding three lines down; the fingerprint must still match.
    target.write_text("# a\n# b\n# c\n" + DIRTY_MODULE)
    assert main(["src"]) == 0


def test_fixed_code_makes_baseline_stale(
    project: Path, capsys: pytest.CaptureFixture[str]
) -> None:
    target = write_module(project, DIRTY_MODULE)
    assert main(["src", "--write-baseline"]) == 0
    capsys.readouterr()
    target.write_text(CLEAN_MODULE)
    assert main(["src"]) == 1  # stale entries must be pruned
    assert "stale" in capsys.readouterr().out


def test_baseline_rejects_foreign_json(tmp_path: Path) -> None:
    bogus = tmp_path / "not-a-baseline.json"
    bogus.write_text('{"something": "else"}')
    with pytest.raises(ValueError):
        Baseline.load(str(bogus))


def test_missing_baseline_file_is_empty(tmp_path: Path) -> None:
    baseline = Baseline.load(str(tmp_path / "absent.json"))
    assert len(baseline) == 0


# ---------------------------------------------------------------------------
# Config


def test_builtin_config_matches_pyproject() -> None:
    """The no-TOML-parser fallback table must never drift from pyproject."""
    loaded = load_config(start=str(REPO_ROOT))
    if loaded.source != "pyproject":
        pytest.skip("no TOML parser available; builtin table is the config")
    builtin = config_from_table(
        DEFAULT_TOOL_TABLE, str(REPO_ROOT), "builtin"
    )
    assert loaded.paths == builtin.paths
    assert loaded.baseline == builtin.baseline
    assert loaded.exclude == builtin.exclude
    assert dict(loaded.rule_options) == dict(builtin.rule_options)


def test_include_restricts_and_allow_exempts() -> None:
    config = DetlintConfig(
        root="/nonexistent",
        baseline=None,
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


def test_explicit_config_must_have_table(tmp_path: Path) -> None:
    empty = tmp_path / "pyproject.toml"
    empty.write_text("[project]\nname = 'x'\n")
    with pytest.raises(ConfigError):
        load_config(explicit_pyproject=str(empty))


# ---------------------------------------------------------------------------
# Meta-check: this repository's own source tree


def test_real_src_tree_is_clean() -> None:
    """The invariant CI gates on: zero open findings over the real src/."""
    config = load_config(start=str(REPO_ROOT))
    baseline = (
        Baseline.load(str(REPO_ROOT / config.baseline))
        if config.baseline
        else None
    )
    result = Analyzer(config, baseline=baseline).run()
    open_findings = [
        f"{f.path}:{f.line} {f.rule} {f.message}" for f in result.unsuppressed
    ]
    assert not open_findings, "\n".join(open_findings)
    assert not result.stale_baseline
    assert result.files_checked > 50  # the whole src tree, not a subset


def test_real_src_suppressions_all_carry_reasons() -> None:
    config = load_config(start=str(REPO_ROOT))
    result = Analyzer(config, baseline=None).run()
    for finding in result.suppressed:
        assert finding.suppression_reason, (
            f"{finding.path}:{finding.line} suppressed without a reason"
        )
