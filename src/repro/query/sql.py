"""sqlite3 backend demonstrating the Q1/Q2/Q3 decomposition on real SQL.

The paper's formulation rewrites a complex aggregate query (Q1) into a cheap
object-enumeration query (Q2) plus an expensive per-object EXISTS predicate
(Q3).  This module materialises a :class:`~repro.query.table.Table` into an
in-memory sqlite3 database and runs both forms, so the rewriting — and the
numpy predicates used by the estimators — can be validated against a real SQL
engine.  It is a validation and demonstration backend; the estimators
themselves never require it.
"""

from __future__ import annotations

import sqlite3
from typing import Sequence

import numpy as np

from repro.query.table import Table


def quote_identifier(name: str) -> str:
    """Quote a table or column name for safe interpolation into SQL text.

    Identifiers cannot be bound as parameters, so any name woven into DDL or
    query text must be delimited.  Double-quoting (the SQL standard form,
    with embedded double quotes doubled) makes reserved words (``select``,
    ``group``) and names containing hyphens or spaces legal; names that
    cannot be represented at all — empty, non-string, or containing a NUL
    byte, which sqlite rejects inside any token — raise ``ValueError``.
    """
    if not isinstance(name, str):
        raise ValueError(f"identifier must be a string, got {type(name).__name__}")
    if not name:
        raise ValueError("identifier must be non-empty")
    if "\x00" in name:
        raise ValueError("identifier must not contain NUL bytes")
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


#: Pragmas applied to every connection this module opens.  The service layer
#: shares one read-mostly connection across executor threads, so the settings
#: follow the concurrent-reader recipe: WAL keeps readers unblocked by the
#: occasional writer, ``busy_timeout`` retries instead of failing fast on a
#: held lock, and NORMAL sync is safe under WAL.  All four are no-ops or
#: harmless on the default ``:memory:`` database.
CONNECTION_PRAGMAS = (
    "PRAGMA journal_mode=WAL",
    "PRAGMA busy_timeout=30000",
    "PRAGMA synchronous=NORMAL",
    "PRAGMA foreign_keys=ON",
)


def table_to_sqlite(
    table: Table,
    connection: sqlite3.Connection | None = None,
    table_name: str | None = None,
    check_same_thread: bool = True,
    database: str = ":memory:",
) -> sqlite3.Connection:
    """Materialise a table into sqlite3 (in memory unless given a connection).

    Table and column names are delimited with :func:`quote_identifier`, so
    datasets named after SQL keywords or containing hyphens (the workload
    builders produce names like ``neighbors-S``) materialise verbatim
    instead of corrupting the DDL.

    Args:
        table: the table to materialise.
        connection: reuse an existing connection instead of opening one.
        table_name: name for the materialised table (defaults to the
            table's own name).
        check_same_thread: forwarded to :func:`sqlite3.connect` when a new
            connection is opened.  The estimate server evaluates requests on
            executor threads while serialising access with its own locks, so
            it passes ``False``; direct library use keeps sqlite's default
            same-thread guard.
        database: where to materialise when opening a new connection —
            ``":memory:"`` (the default) or a filesystem path.  A file
            database is what the contention tests use: a second connection
            from another thread or process can then genuinely hold locks
            against this one, exercising the WAL + ``busy_timeout`` recipe.
    """
    if connection is None:
        connection = sqlite3.connect(database, check_same_thread=check_same_thread)
        for pragma in CONNECTION_PRAGMAS:
            connection.execute(pragma)
    name = quote_identifier(table_name or table.name)
    columns = table.column_names
    column_spec = ", ".join(f"{quote_identifier(column)} REAL" for column in columns)
    connection.execute(f"DROP TABLE IF EXISTS {name}")
    connection.execute(f"CREATE TABLE {name} (rowidx INTEGER PRIMARY KEY, {column_spec})")
    placeholders = ", ".join("?" for _ in range(len(columns) + 1))
    rows = zip(
        range(table.num_rows),
        *[np.asarray(table.column(column), dtype=np.float64).tolist() for column in columns],
    )
    connection.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)
    connection.commit()
    return connection


class SQLCountingBackend:
    """Run the paper's example queries directly in sqlite3.

    Args:
        table: the object table (Q2's output).
        table_name: name under which the table is materialised.
    """

    def __init__(self, table: Table, table_name: str | None = None) -> None:
        self.table = table
        self.table_name = table_name or table.name or "objects"
        self.connection = table_to_sqlite(table, table_name=self.table_name)

    def _quoted(self, identifier: str) -> str:
        return quote_identifier(identifier)

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLCountingBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- full-query form (Q1) -------------------------------------------------
    def skyband_count_full_query(self, x_column: str, y_column: str, k: int) -> int:
        """Example 2's k-skyband size via the self-join + HAVING query."""
        name = self._quoted(self.table_name)
        x_column = self._quoted(x_column)
        y_column = self._quoted(y_column)
        sql = f"""
            SELECT
                (SELECT COUNT(*) FROM {name}) -
                (SELECT COUNT(*) FROM (
                    SELECT o1.rowidx
                    FROM {name} o1, {name} o2
                    WHERE o2.{x_column} >= o1.{x_column}
                      AND o2.{y_column} >= o1.{y_column}
                      AND (o2.{x_column} > o1.{x_column} OR o2.{y_column} > o1.{y_column})
                    GROUP BY o1.rowidx
                    HAVING COUNT(*) >= ?
                ))
        """
        # The self-join form in the paper counts groups with fewer than k
        # dominators, but objects with zero dominators produce no join rows at
        # all; counting the complement (groups with >= k dominators) and
        # subtracting from N handles them correctly.
        (count,) = self.connection.execute(sql, (k,)).fetchone()
        return int(count)

    def neighbor_count_full_query(
        self, x_column: str, y_column: str, max_neighbors: int, distance: float
    ) -> int:
        """Example 1's "few neighbours" count via the self-join query."""
        name = self._quoted(self.table_name)
        quoted_x = self._quoted(x_column)
        quoted_y = self._quoted(y_column)
        sql = f"""
            SELECT COUNT(*) FROM (
                SELECT o1.rowidx
                FROM {name} o1, {name} o2
                WHERE o1.rowidx != o2.rowidx
                  AND ((o1.{quoted_x} - o2.{quoted_x}) * (o1.{quoted_x} - o2.{quoted_x})
                     + (o1.{quoted_y} - o2.{quoted_y}) * (o1.{quoted_y} - o2.{quoted_y})) <= ?
                GROUP BY o1.rowidx
                HAVING COUNT(*) <= ?
            )
        """
        (with_neighbors,) = self.connection.execute(sql, (distance**2, max_neighbors)).fetchone()
        # Objects with zero neighbours never appear in the join output but do
        # satisfy "at most k neighbours"; add them back in.
        isolated = self._isolated_count(x_column, y_column, distance)
        return int(with_neighbors) + isolated

    def _isolated_count(self, x_column: str, y_column: str, distance: float) -> int:
        name = self._quoted(self.table_name)
        x_column = self._quoted(x_column)
        y_column = self._quoted(y_column)
        sql = f"""
            SELECT COUNT(*) FROM {name} o1
            WHERE NOT EXISTS (
                SELECT 1 FROM {name} o2
                WHERE o1.rowidx != o2.rowidx
                  AND ((o1.{x_column} - o2.{x_column}) * (o1.{x_column} - o2.{x_column})
                     + (o1.{y_column} - o2.{y_column}) * (o1.{y_column} - o2.{y_column})) <= ?
            )
        """
        (count,) = self.connection.execute(sql, (distance**2,)).fetchone()
        return int(count)

    # -- per-object predicate form (Q3) ---------------------------------------
    def skyband_predicate(self, x_column: str, y_column: str, k: int, index: int) -> bool:
        """Example 2's per-object predicate as a correlated aggregate subquery."""
        name = self._quoted(self.table_name)
        x_column = self._quoted(x_column)
        y_column = self._quoted(y_column)
        sql = f"""
            SELECT (
                SELECT COUNT(*) FROM {name}
                WHERE {x_column} >= (SELECT {x_column} FROM {name} WHERE rowidx = :idx)
                  AND {y_column} >= (SELECT {y_column} FROM {name} WHERE rowidx = :idx)
                  AND ({x_column} > (SELECT {x_column} FROM {name} WHERE rowidx = :idx)
                    OR {y_column} > (SELECT {y_column} FROM {name} WHERE rowidx = :idx))
            ) < :k
        """
        (result,) = self.connection.execute(sql, {"idx": index, "k": k}).fetchone()
        return bool(result)

    def neighbor_predicate(
        self, x_column: str, y_column: str, max_neighbors: int, distance: float, index: int
    ) -> bool:
        """Example 1's per-object predicate as a correlated aggregate subquery."""
        name = self._quoted(self.table_name)
        x_column = self._quoted(x_column)
        y_column = self._quoted(y_column)
        sql = f"""
            SELECT (
                SELECT COUNT(*) FROM {name} o2
                WHERE o2.rowidx != :idx
                  AND ((o2.{x_column} - (SELECT {x_column} FROM {name} WHERE rowidx = :idx))
                        * (o2.{x_column} - (SELECT {x_column} FROM {name} WHERE rowidx = :idx))
                     + (o2.{y_column} - (SELECT {y_column} FROM {name} WHERE rowidx = :idx))
                        * (o2.{y_column}
                           - (SELECT {y_column} FROM {name} WHERE rowidx = :idx))) <= :dist_sq
            ) <= :k
        """
        (result,) = self.connection.execute(
            sql, {"idx": index, "dist_sq": distance**2, "k": max_neighbors}
        ).fetchone()
        return bool(result)

    def count_with_predicate(self, predicate_name: str, indices: Sequence[int], **kwargs) -> int:
        """Evaluate a named per-object predicate over a set of objects."""
        evaluators = {
            "skyband": self.skyband_predicate,
            "neighbors": self.neighbor_predicate,
        }
        if predicate_name not in evaluators:
            raise ValueError(f"unknown predicate {predicate_name!r}")
        evaluator = evaluators[predicate_name]
        return sum(int(evaluator(index=int(index), **kwargs)) for index in indices)
