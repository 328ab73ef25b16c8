"""Tests for JSON catalog loading and the sql CLI command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.frontend.catalog import ColumnStats, StatsCatalog

SRC = Path(__file__).resolve().parent.parent / "src"

DOCUMENT = {
    "tables": {
        "orders": {
            "cardinality": 100_000,
            "columns": {
                "cid": {"distinct": 5_000},
                "flag": {"distinct": 2, "equality_selectivity": 0.7},
            },
        },
        "customers": {"cardinality": 5_000, "columns": {"id": {"distinct": 5_000}}},
    }
}


class TestFromDict:
    def test_tables_registered(self):
        catalog = StatsCatalog.from_dict(DOCUMENT)
        assert len(catalog) == 2
        assert catalog.table("orders").cardinality == 100_000

    def test_column_stats(self):
        catalog = StatsCatalog.from_dict(DOCUMENT)
        column = catalog.table("orders").column("cid")
        assert column.distinct == 5_000

    def test_equality_selectivity_override(self):
        catalog = StatsCatalog.from_dict(DOCUMENT)
        assert catalog.table("orders").column("flag").selectivity == 0.7

    def test_missing_tables_key(self):
        with pytest.raises(ValueError, match='"tables"'):
            StatsCatalog.from_dict({})

    def test_missing_cardinality(self):
        with pytest.raises(KeyError):
            StatsCatalog.from_dict({"tables": {"t": {}}})


def _table(cardinality=10, **column):
    """A one-table document; ``column`` entries become column ``c``."""
    entry = {"cardinality": cardinality}
    if column:
        entry["columns"] = {"c": column}
    return {"tables": {"a": entry}}


#: Malformed documents, each with the words its error must name.
MALFORMED = {
    "document-list": ([], "JSON object"),
    "table-number": ({"tables": {"a": 5}}, "table 'a'"),
    "columns-list": (
        {"tables": {"a": {"cardinality": 10, "columns": []}}},
        "table 'a' columns",
    ),
    "cardinality-string": (_table(cardinality="x"), "table 'a' cardinality"),
    "cardinality-bool": (_table(cardinality=True), "table 'a' cardinality"),
    "column-number": (
        {"tables": {"a": {"cardinality": 10, "columns": {"c": 5}}}},
        "column a.c",
    ),
    "distinct-string": (_table(distinct="y"), "column a.c distinct"),
    "selectivity-string": (
        _table(distinct=2, equality_selectivity="z"),
        "column a.c equality_selectivity",
    ),
    "selectivity-above-one": (
        _table(distinct=2, equality_selectivity=5),
        "column a.c equality_selectivity",
    ),
}


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "document, names", MALFORMED.values(), ids=MALFORMED.keys()
    )
    def test_value_error_names_table_and_field(self, document, names):
        with pytest.raises(ValueError) as raised:
            StatsCatalog.from_dict(document)
        assert names in str(raised.value)

    def test_column_stats_rejects_selectivity_out_of_range(self):
        with pytest.raises(ValueError, match="equality_selectivity"):
            ColumnStats(distinct=2, equality_selectivity=5)

    @pytest.mark.parametrize(
        "document, names", MALFORMED.values(), ids=MALFORMED.keys()
    )
    def test_sql_command_exits_two(self, document, names, tmp_path, capsys):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(document))
        code = main(["sql", "--catalog", str(path), "SELECT * FROM a"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and names in err

    def test_cli_process_prints_no_traceback(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(MALFORMED["columns-list"][0]))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            entry for entry in (str(SRC), env.get("PYTHONPATH")) if entry
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sql", "--catalog", str(path),
             "SELECT * FROM a"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")
        assert "Traceback" not in completed.stderr


class TestFromJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(DOCUMENT))
        catalog = StatsCatalog.from_json(path)
        assert catalog.table("customers").cardinality == 5_000


class TestSqlCommand:
    @pytest.fixture
    def catalog_path(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(DOCUMENT))
        return str(path)

    def test_optimizes_sql(self, catalog_path, capsys):
        code = main(
            [
                "sql",
                "SELECT * FROM orders o, customers c WHERE o.cid = c.id",
                "--catalog",
                catalog_path,
                "--time-factor",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan cost" in out
        assert "joins: 1" in out

    def test_explain_flag(self, catalog_path, capsys):
        main(
            [
                "sql",
                "SELECT * FROM orders o, customers c WHERE o.cid = c.id",
                "--catalog",
                catalog_path,
                "--time-factor",
                "1",
                "--explain",
            ]
        )
        assert "hash join" in capsys.readouterr().out

    def test_parse_error_exits_with_usage_code(self, catalog_path, capsys):
        assert main(["sql", "NOT SQL AT ALL", "--catalog", catalog_path]) == 2
        assert "expected SELECT" in capsys.readouterr().err
