"""Ground-truth oracle: the paper's example queries run directly in sqlite3.

The paper rewrites a complex aggregate query (Q1) into a cheap
object-enumeration query (Q2) plus an expensive per-object predicate (Q3).
:class:`SQLCountingBackend` runs both the full-query form and the
per-object form as plain SQL, so the numpy predicates the estimators use can
be cross-checked against a real SQL engine.  It is a test oracle, not a
library path.
"""

from __future__ import annotations

from typing import Sequence

from repro.query.sql import quote_identifier, table_to_sqlite
from repro.query.table import Table


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
