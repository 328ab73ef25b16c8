"""Parse a small SQL dialect into an optimizable query.

Supported grammar (case-insensitive keywords)::

    statement  := query [';']
    query      := SELECT select_list FROM table_list [WHERE predicates]
    select_list:= '*' | column (',' column)*
    table_list := table [alias] (',' table [alias])*
    predicates := predicate (AND predicate)*
    predicate  := column '=' column          -- equi-join
                | column '=' constant        -- selection
                | column cmp constant        -- selection (selectivity
                                                from catalog default)
    column     := identifier '.' identifier
    cmp        := '=' | '<' | '>' | '<=' | '>=' | '<>'

Whitespace and ``--`` comments, which run to the end of their line, may
sit between any two tokens and after the last one.  The one ``;`` a
statement may carry ends it; only whitespace and comments may follow.

This covers exactly the query class the paper studies: selections,
projections, and equi-joins.  Join predicates between the same pair of
tables are folded (selectivities multiplied) into a single edge, since
the join graph keeps one predicate per pair; the folded edge keeps the
distinct counts of the most selective predicate.

The parser is deliberately small and strict: anything outside the
grammar raises :class:`ParseError` with the offending token.  That
includes a ``;`` anywhere but at the end, parenthesised predicates,
``IS NULL``, ``OR`` and ``JOIN ... ON``, all of which fall outside the
conjunctive equi-join class.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from repro.catalog.join_graph import JoinGraph, Query
from repro.catalog.predicates import JoinPredicate
from repro.catalog.relation import Relation, Selection
from repro.frontend.catalog import StatsCatalog

#: A ``comment`` runs to the end of its line and is dropped like
#: whitespace; it comes last so that ordinary tokens never try it.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<string>'[^']*')"
    r"|(?P<op><=|>=|<>|=|<|>|\*|,|\.|;)"
    r"|(?P<comment>--[^\n]*))"
)
_COMPARISONS = frozenset(("=", "<", ">", "<=", ">=", "<>"))

_KEYWORDS = {"select", "from", "where", "and", "as"}

#: Default selectivities for inequality comparisons (System R's magic
#: numbers: 1/3 for open ranges).
_INEQUALITY_SELECTIVITY = 1.0 / 3.0
_NOT_EQUAL_SELECTIVITY = 0.9


class ParseError(ValueError):
    """The query text does not match the supported grammar."""


class _Token(NamedTuple):
    kind: str
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    position = 0
    end = len(text)
    while position < end:
        match = _TOKEN_RE.match(text, position)
        if match is None:
            remainder = text[position:].strip()
            if not remainder:
                break
            raise ParseError(f"cannot tokenize near: {remainder[:20]!r}")
        kind = match.lastgroup
        assert kind is not None  # every alternative is a named group
        if kind != "comment":
            tokens.append(_Token(kind, match.group(kind), match.start(kind)))
        position = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._index = 0

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of query")
        self._index += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._next()
        if token.kind != "ident" or token.text.lower() != keyword:
            raise ParseError(f"expected {keyword.upper()}, got {token.text!r}")

    def _expect_op(self, op: str) -> None:
        token = self._next()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}, got {token.text!r}")

    def _at_keyword(self, keyword: str) -> bool:
        token = self._peek()
        return (
            token is not None
            and token.kind == "ident"
            and token.text.lower() == keyword
        )

    # -- grammar --------------------------------------------------------

    def parse(self) -> "_Ast":
        self._expect_keyword("select")
        projections = self._select_list()
        self._expect_keyword("from")
        tables = self._table_list()
        predicates: list[tuple] = []
        if self._peek() is not None and not self._try_op(";"):
            self._expect_keyword("where")
            predicates = self._predicates()
            self._try_op(";")
        if self._peek() is not None:
            raise ParseError(f"trailing input: {self._peek().text!r}")
        return _Ast(projections, tables, predicates)

    def _select_list(self) -> list[tuple[str, str]] | None:
        token = self._peek()
        if token is not None and token.kind == "op" and token.text == "*":
            self._next()
            return None
        projections = [self._column()]
        while self._try_op(","):
            projections.append(self._column())
        return projections

    def _try_op(self, op: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "op" and token.text == op:
            self._next()
            return True
        return False

    def _identifier(self) -> str:
        token = self._next()
        if token.kind != "ident" or token.text.lower() in _KEYWORDS:
            raise ParseError(f"expected identifier, got {token.text!r}")
        return token.text

    def _column(self) -> tuple[str, str]:
        table = self._identifier()
        self._expect_op(".")
        column = self._identifier()
        return table, column

    def _table_list(self) -> list[tuple[str, str]]:
        tables = [self._table()]
        while self._try_op(","):
            tables.append(self._table())
        return tables

    def _table(self) -> tuple[str, str]:
        name = self._identifier()
        alias = name
        if self._at_keyword("as"):
            self._next()
            alias = self._identifier()
        else:
            token = self._peek()
            if (
                token is not None
                and token.kind == "ident"
                and token.text.lower() not in _KEYWORDS
            ):
                alias = self._identifier()
        return name, alias

    def _predicates(self) -> list[tuple]:
        predicates = [self._predicate()]
        while self._at_keyword("and"):
            self._next()
            predicates.append(self._predicate())
        return predicates

    def _predicate(self) -> tuple:
        left = self._column()
        op_token = self._next()
        if op_token.text not in _COMPARISONS:
            raise ParseError(f"expected comparison, got {op_token.text!r}")
        operator = op_token.text
        token = self._peek()
        if token is not None and token.kind == "ident":
            right = self._column()
            if operator != "=":
                raise ParseError(
                    f"only equi-joins are supported between columns, got {operator!r}"
                )
            return ("join", left, right)
        constant = self._next()
        if constant.kind not in ("number", "string"):
            raise ParseError(f"expected constant, got {constant.text!r}")
        return ("selection", left, operator)


@dataclass(frozen=True)
class _Ast:
    projections: list[tuple[str, str]] | None
    tables: list[tuple[str, str]]
    predicates: list[tuple]


def parse_query(
    text: str, catalog: StatsCatalog, name: str | None = None
) -> Query:
    """Parse SQL text into a :class:`~repro.catalog.join_graph.Query`.

    Statistics come from ``catalog``; unregistered tables raise
    ``KeyError``.  Constant predicates become selections on their
    relation (selectivity from the column's catalog entry; System-R
    defaults for inequalities); ``a.x = b.y`` becomes a join predicate
    with the columns' distinct counts.
    """
    ast = _Parser(_tokenize(text)).parse()

    alias_index: dict[str, int] = {}
    table_of_alias: dict[str, str] = {}
    selections: dict[int, list[Selection]] = {}
    for table_name, alias in ast.tables:
        key = alias.lower()
        if key in alias_index:
            raise ParseError(f"duplicate table alias {alias!r}")
        catalog.table(table_name)  # existence check, raises KeyError
        alias_index[key] = len(alias_index)
        table_of_alias[key] = table_name
        selections[alias_index[key]] = []

    def resolve(column: tuple[str, str]) -> tuple[int, str, str]:
        alias, column_name = column
        key = alias.lower()
        if key not in alias_index:
            raise ParseError(f"unknown table or alias {alias!r}")
        return alias_index[key], table_of_alias[key], column_name

    joins: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for predicate in ast.predicates:
        if predicate[0] == "selection":
            index, table_name, column_name = resolve(predicate[1])
            operator = predicate[2]
            stats = catalog.table(table_name).column(column_name)
            if operator == "=":
                selectivity = stats.selectivity
            elif operator == "<>":
                selectivity = _NOT_EQUAL_SELECTIVITY
            else:
                selectivity = _INEQUALITY_SELECTIVITY
            selections[index].append(
                Selection(min(1.0, selectivity), column=column_name)
            )
        else:
            left_index, left_table, left_column = resolve(predicate[1])
            right_index, right_table, right_column = resolve(predicate[2])
            if left_index == right_index:
                raise ParseError(
                    "self-join predicates within one table occurrence are "
                    "not supported (use two aliases)"
                )
            left_distinct = catalog.table(left_table).column(left_column).distinct
            right_distinct = catalog.table(right_table).column(right_column).distinct
            pair = (min(left_index, right_index), max(left_index, right_index))
            if pair[0] == left_index:
                joins.setdefault(pair, []).append((left_distinct, right_distinct))
            else:
                joins.setdefault(pair, []).append((right_distinct, left_distinct))

    relations = []
    for alias, index in sorted(alias_index.items(), key=lambda kv: kv[1]):
        table_stats = catalog.table(table_of_alias[alias])
        relations.append(
            Relation(
                alias,
                table_stats.cardinality,
                tuple(selections[index]),
            )
        )

    predicates = []
    for (a, b), sides in joins.items():
        # Fold parallel predicates: selectivities multiply; the folded
        # edge keeps the most selective predicate's distinct counts and
        # scales them so the combined selectivity is preserved.
        combined = 1.0
        best = max(sides, key=lambda s: max(s))
        for left_distinct, right_distinct in sides:
            combined *= 1.0 / max(left_distinct, right_distinct)
        scale = (1.0 / combined) / max(best)
        predicates.append(
            JoinPredicate(
                a,
                b,
                left_distinct=best[0] * scale,
                right_distinct=best[1] * scale,
            )
        )

    # The folded predicates carry *synthetic* distinct counts (scaled so the
    # combined selectivity of parallel predicates is preserved), which may
    # exceed the owning table's row count.  Input statistics were already
    # validated at catalog registration, so skip the graph-level check.
    graph = JoinGraph(relations, predicates, validate=False)
    return Query(
        graph=graph,
        name=name or "sql-query",
        metadata={"sql": text.strip(), "projections": ast.projections},
    )
