"""Tests for the SQL-ish text frontend."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.frontend.catalog import ColumnStats, StatsCatalog
from repro.frontend.sql import ParseError, parse_query

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def catalog():
    cat = StatsCatalog()
    cat.add_table(
        "orders",
        1_000_000,
        {
            "customer_id": ColumnStats(distinct=50_000),
            "product_id": ColumnStats(distinct=10_000),
            "status": ColumnStats(distinct=5),
        },
    )
    cat.add_table(
        "customers",
        50_000,
        {
            "id": ColumnStats(distinct=50_000),
            "region_id": ColumnStats(distinct=50),
        },
    )
    cat.add_table("regions", 50, {"id": ColumnStats(distinct=50)})
    cat.add_table("products", 10_000, {"id": ColumnStats(distinct=10_000)})
    return cat


class TestCatalog:
    def test_lookup_case_insensitive(self, catalog):
        assert catalog.table("ORDERS").cardinality == 1_000_000

    def test_duplicate_rejected(self, catalog):
        with pytest.raises(ValueError, match="already registered"):
            catalog.add_table("orders", 10)

    def test_unknown_table(self, catalog):
        with pytest.raises(KeyError, match="unknown table"):
            catalog.table("nope")

    def test_unknown_column_defaults_to_key(self, catalog):
        stats = catalog.table("regions").column("mystery")
        assert stats.distinct == 50

    def test_equality_selectivity_default(self):
        assert ColumnStats(distinct=4).selectivity == pytest.approx(0.25)

    def test_equality_selectivity_override(self):
        stats = ColumnStats(distinct=4, equality_selectivity=0.5)
        assert stats.selectivity == 0.5


class TestParseJoins:
    SQL = """
        SELECT o.product_id, r.id
        FROM orders o, customers c, regions r, products p
        WHERE o.customer_id = c.id
          AND c.region_id = r.id
          AND o.product_id = p.id
    """

    def test_relations_and_joins(self, catalog):
        query = parse_query(self.SQL, catalog)
        assert query.graph.n_relations == 4
        assert query.n_joins == 3
        assert len(query.graph.predicates) == 3

    def test_join_selectivity_from_distinct(self, catalog):
        query = parse_query(self.SQL, catalog)
        graph = query.graph
        # orders(0) |><| customers(1) on customer_id(50k) = id(50k).
        assert graph.edge(0, 1).selectivity == pytest.approx(1 / 50_000)
        # customers(1) |><| regions(2): max(50, 50).
        assert graph.edge(1, 2).selectivity == pytest.approx(1 / 50)

    def test_aliases_name_relations(self, catalog):
        query = parse_query(self.SQL, catalog)
        names = [r.name for r in query.graph.relations]
        assert names == ["o", "c", "r", "p"]

    def test_optimizable(self, catalog):
        from repro.core.optimizer import optimize

        query = parse_query(self.SQL, catalog)
        result = optimize(query, method="IAI", time_factor=2, units_per_n2=10)
        assert result.cost > 0

    def test_metadata_records_sql(self, catalog):
        query = parse_query(self.SQL, catalog)
        assert "SELECT" in query.metadata["sql"]
        assert query.metadata["projections"] == [
            ("o", "product_id"),
            ("r", "id"),
        ]


class TestParseSelections:
    def test_equality_selection(self, catalog):
        query = parse_query(
            "SELECT * FROM orders o WHERE o.status = 'open'", catalog
        )
        relation = query.graph.relations[0]
        assert relation.selections[0].selectivity == pytest.approx(1 / 5)
        assert relation.cardinality == pytest.approx(200_000)

    def test_inequality_selection_magic_number(self, catalog):
        query = parse_query(
            "SELECT * FROM orders o WHERE o.status > 3", catalog
        )
        assert query.graph.relations[0].selections[0].selectivity == pytest.approx(
            1 / 3
        )

    def test_not_equal_selection(self, catalog):
        query = parse_query(
            "SELECT * FROM orders o WHERE o.status <> 1", catalog
        )
        assert query.graph.relations[0].selections[0].selectivity == pytest.approx(
            0.9
        )

    def test_star_projection(self, catalog):
        query = parse_query("SELECT * FROM regions r", catalog)
        assert query.metadata["projections"] is None


class TestParallelPredicateFolding:
    def test_two_predicates_fold_into_one_edge(self, catalog):
        sql = """
            SELECT * FROM orders o, customers c
            WHERE o.customer_id = c.id AND o.product_id = c.region_id
        """
        query = parse_query(sql, catalog)
        assert len(query.graph.predicates) == 1
        predicate = query.graph.predicates[0]
        # Combined selectivity = 1/50000 * 1/10000.
        assert predicate.selectivity == pytest.approx(1 / (50_000 * 10_000))


class TestParseErrors:
    @pytest.mark.parametrize(
        "sql, message",
        [
            ("FROM orders o", "expected SELECT"),
            ("SELECT * orders o", "expected FROM"),
            ("SELECT * FROM orders o WHERE o.a < c.b", "only equi-joins"),
            ("SELECT * FROM orders o WHERE o.a = x.b", "unknown table or alias"),
            ("SELECT * FROM orders o, orders o WHERE o.a = o.b", "duplicate table alias"),
            ("SELECT * FROM orders o WHERE o.a = o.b", "self-join"),
            ("SELECT * FROM orders o WHERE o.a =", "unexpected end"),
            ("SELECT * FROM orders o extra_tokens o.a", "trailing|expected"),
        ],
    )
    def test_rejects(self, catalog, sql, message):
        with pytest.raises(ParseError, match=message):
            parse_query(sql, catalog)

    def test_unknown_table_is_key_error(self, catalog):
        with pytest.raises(KeyError):
            parse_query("SELECT * FROM ghosts g", catalog)

    def test_bad_character(self, catalog):
        with pytest.raises(ParseError, match="tokenize"):
            parse_query("SELECT * FROM orders o WHERE o.a = %%%", catalog)


THREE_WAY = (
    "SELECT * FROM orders o, customers c, regions r "
    "WHERE o.customer_id = c.id AND c.region_id = r.id"
)

#: The same statement with a terminator and/or comments.
TERMINATED = {
    "semicolon": THREE_WAY + ";",
    "spaced-semicolon": THREE_WAY + " ;\n",
    "semicolon-then-comment": THREE_WAY + "; -- done",
    "comment-after-semicolon-no-space": THREE_WAY + ";--done\n",
    "comment-without-semicolon": THREE_WAY + " -- no terminator",
    "comments-between-tokens": (
        "-- first line\n"
        "SELECT * -- every column\n"
        "FROM orders o, customers c, regions r\n"
        "WHERE o.customer_id = c.id -- the fact table\n"
        "  AND c.region_id = r.id; -- last\n"
        "-- and a closing line"
    ),
}

#: Outside the conjunctive equi-join grammar: ``repro sql`` exits 2.
REJECTED = {
    "semicolon-between-statements": (
        "SELECT * FROM orders o; SELECT * FROM regions r"
    ),
    "semicolon-before-where": (
        "SELECT * FROM orders o, customers c; WHERE o.customer_id = c.id"
    ),
    "two-terminators": THREE_WAY + ";;",
    "parenthesised-predicate": (
        "SELECT * FROM orders o, customers c WHERE (o.customer_id = c.id)"
    ),
    "is-null": "SELECT * FROM orders o WHERE o.status IS NULL",
    "or": (
        "SELECT * FROM orders o, customers c "
        "WHERE o.customer_id = c.id OR o.status = 1"
    ),
    "join-on": (
        "SELECT * FROM orders o JOIN customers c ON o.customer_id = c.id"
    ),
}

CATALOG_DOCUMENT = {
    "tables": {
        "orders": {
            "cardinality": 1_000_000,
            "columns": {
                "customer_id": {"distinct": 50_000},
                "status": {"distinct": 5},
            },
        },
        "customers": {
            "cardinality": 50_000,
            "columns": {
                "id": {"distinct": 50_000},
                "region_id": {"distinct": 50},
            },
        },
        "regions": {"cardinality": 50, "columns": {"id": {"distinct": 50}}},
    }
}


class TestStatementEnd:
    @pytest.mark.parametrize(
        "text", TERMINATED.values(), ids=TERMINATED.keys()
    )
    def test_same_graph_as_bare_statement(self, catalog, text):
        bare = parse_query(THREE_WAY, catalog).graph
        graph = parse_query(text, catalog).graph
        assert graph.relations == bare.relations
        assert graph.predicates == bare.predicates

    def test_dashes_inside_a_string_are_not_a_comment(self, catalog):
        query = parse_query(
            "SELECT * FROM orders o WHERE o.status = 'a--b'", catalog
        )
        assert query.graph.relations[0].selections[0].selectivity == (
            pytest.approx(1 / 5)
        )

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_rejected_construct_is_a_parse_error(self, catalog, text):
        with pytest.raises(ParseError):
            parse_query(text, catalog)


class TestRejectedConstructsExitTwo:
    @pytest.fixture
    def catalog_path(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(CATALOG_DOCUMENT))
        return str(path)

    def test_terminated_statement_plans(self, catalog_path, capsys):
        code = main(["sql", "--catalog", catalog_path, TERMINATED["semicolon"]])
        assert code == 0
        assert "plan cost" in capsys.readouterr().out

    @pytest.mark.parametrize("text", REJECTED.values(), ids=REJECTED.keys())
    def test_sql_command_exits_two(self, catalog_path, text, capsys):
        code = main(["sql", "--catalog", catalog_path, text])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_cli_process_prints_no_traceback(self, catalog_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            entry for entry in (str(SRC), env.get("PYTHONPATH")) if entry
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sql", "--catalog", catalog_path,
             REJECTED["semicolon-between-statements"]],
            env=env,
            capture_output=True,
            text=True,
        )
        assert completed.returncode == 2
        assert completed.stderr.startswith("error:")
        assert "Traceback" not in completed.stderr
