"""A statistics catalog for the text frontend.

The optimizer needs, per table, a cardinality, and per join column a
distinct-value count; per selection predicate, a selectivity.  A real
system keeps these in its catalog; here the user registers them (or they
come from :func:`StatsCatalog.from_tables`, which measures actual engine
tables).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.utils.validation import check_fraction, check_positive


@dataclass(frozen=True)
class ColumnStats:
    """Statistics for one column: distinct values and, optionally, a
    default selectivity for equality-with-constant predicates."""

    distinct: float
    equality_selectivity: float | None = None

    def __post_init__(self) -> None:
        check_positive("distinct", self.distinct)
        if self.equality_selectivity is not None:
            check_fraction("equality_selectivity", self.equality_selectivity)

    @property
    def selectivity(self) -> float:
        """Selectivity of ``column = constant`` (1/distinct by default)."""
        if self.equality_selectivity is not None:
            return self.equality_selectivity
        return 1.0 / self.distinct


@dataclass
class TableStats:
    """Statistics for one table."""

    name: str
    cardinality: int
    columns: dict[str, ColumnStats] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_positive("cardinality", self.cardinality)
        for column, stats in self.columns.items():
            if stats.distinct > self.cardinality:
                raise ValueError(
                    f"column {self.name}.{column} claims {stats.distinct:g} "
                    f"distinct values but the table has only "
                    f"{self.cardinality} rows"
                )

    def column(self, name: str) -> ColumnStats:
        stats = self.columns.get(name)
        if stats is None:
            # Unknown column: assume a key-like column (worst case for
            # join blow-up estimation is optimistic; document clearly).
            return ColumnStats(distinct=float(self.cardinality))
        return stats


class StatsCatalog:
    """A registry of :class:`TableStats`, keyed case-insensitively.

    Besides programmatic registration, a catalog can be loaded from a
    JSON document (see :meth:`from_json`)::

        {
          "tables": {
            "orders": {
              "cardinality": 1000000,
              "columns": {"customer_id": {"distinct": 50000}}
            }
          }
        }
    """

    def __init__(self) -> None:
        self._tables: dict[str, TableStats] = {}

    @classmethod
    def from_dict(cls, document: object) -> "StatsCatalog":
        """Build a catalog from a JSON-shaped dictionary.

        A document of the wrong shape, or a statistic that is not a
        number in range (a JSON boolean is not a number), raises
        :class:`ValueError` naming the table and the field; a missing
        ``cardinality`` or ``distinct`` raises :class:`KeyError`.
        """
        if not isinstance(document, dict):
            raise ValueError("catalog document must be a JSON object")
        tables = document.get("tables")
        if not isinstance(tables, dict):
            raise ValueError('catalog document needs a "tables" mapping')
        catalog = cls()
        for name, entry in tables.items():
            if not isinstance(entry, dict):
                raise ValueError(f"table {name!r} must be a JSON object, got {entry!r}")
            column_entries = entry.get("columns", {})
            if not isinstance(column_entries, dict):
                raise ValueError(
                    f"table {name!r} columns must be a JSON object, "
                    f"got {column_entries!r}"
                )
            columns: dict[str, ColumnStats] = {}
            for column, stats in column_entries.items():
                where = f"column {name}.{column}"
                if not isinstance(stats, dict):
                    raise ValueError(f"{where} must be a JSON object, got {stats!r}")
                distinct = stats["distinct"]
                _check_statistic(distinct, f"{where} distinct", check_positive)
                selectivity = stats.get("equality_selectivity")
                if selectivity is not None:
                    _check_statistic(
                        selectivity, f"{where} equality_selectivity", check_fraction
                    )
                columns[column] = ColumnStats(distinct, selectivity)
            cardinality = entry["cardinality"]
            _check_statistic(cardinality, f"table {name!r} cardinality", check_positive)
            catalog.add_table(name, cardinality, columns)
        return catalog

    @classmethod
    def from_json(cls, path) -> "StatsCatalog":
        """Load a catalog from a JSON file."""
        import json
        from pathlib import Path

        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def add_table(
        self,
        name: str,
        cardinality: int,
        columns: dict[str, ColumnStats] | None = None,
    ) -> TableStats:
        """Register a table; returns its stats object for further edits."""
        key = name.lower()
        if key in self._tables:
            raise ValueError(f"table {name!r} already registered")
        stats = TableStats(name=name, cardinality=cardinality, columns=dict(columns or {}))
        self._tables[key] = stats
        return stats

    def table(self, name: str) -> TableStats:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise KeyError(
                f"unknown table {name!r}; registered: {sorted(self._tables)}"
            ) from None

    def __len__(self) -> int:
        return len(self._tables)


def _check_statistic(
    value: object, where: str, check: Callable[[str, float], float]
) -> None:
    """Raise :class:`ValueError` naming ``where`` unless ``value`` is a
    number (``bool`` excluded) that passes ``check``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {value!r}")
    check(where, value)
