"""Smoke tests keeping the example scripts runnable.

Each quick example is executed in-process with its ``main()`` (stdout
captured); the slower ones are marked ``slow``.  A broken example is a
broken quickstart for a new user, so these are worth their runtime.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


@pytest.mark.slow
class TestQuickExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "Plan cost" in out or "cost" in out
        assert "hash join" in out

    def test_validate_estimates(self, capsys):
        out = run_example("validate_estimates", capsys)
        assert "measured/estimated" in out
        assert "Final result" in out

    def test_custom_query(self, capsys):
        out = run_example("custom_query", capsys)
        assert "cheaper" in out

    def test_landscape_analysis(self, capsys):
        out = run_example("landscape_analysis", capsys)
        assert "local minima" in out
        assert "within 2x of best" in out

    def test_sql_frontend(self, capsys):
        out = run_example("sql_frontend", capsys)
        assert "Plan cost" in out

    def test_sa_diagnostics(self, capsys):
        out = run_example("sa_diagnostics", capsys)
        assert "temperature" in out
        assert "JAMS87" in out

    def test_optimality_gap(self, capsys):
        out = run_example("optimality_gap", capsys)
        rows = {
            line.split()[0]: [float(cell.rstrip("x")) for cell in line.split()[1:]]
            for line in out.splitlines()
            if line.endswith("x")
        }
        assert set(rows) == {"IAI", "AGI", "II", "SA", "AUG3", "KBZ3"}
        assert all(gap >= 1.0 for gaps in rows.values() for gap in gaps)
