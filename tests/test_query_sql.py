"""Tests for the sqlite3 backend: SQL and numpy predicates must agree."""

import numpy as np
import pytest
from reference_sql import SQLCountingBackend

from repro.query.predicates import NeighborCountPredicate, SkybandPredicate
from repro.query.sql import quote_identifier, table_to_sqlite
from repro.query.table import Table


@pytest.fixture
def sql_points(rng) -> Table:
    points = rng.uniform(0.0, 10.0, size=(60, 2))
    return Table({"x": points[:, 0], "y": points[:, 1]}, name="pts")


class TestQuoteIdentifier:
    def test_plain_names_are_delimited(self):
        assert quote_identifier("points") == '"points"'

    def test_embedded_quotes_are_doubled(self):
        assert quote_identifier('we"ird') == '"we""ird"'

    @pytest.mark.parametrize("bad", ["", None, 7, "nul\x00byte"])
    def test_unrepresentable_names_rejected(self, bad):
        with pytest.raises(ValueError):
            quote_identifier(bad)


class TestTableToSqlite:
    def test_row_count_and_values(self, sql_points):
        connection = table_to_sqlite(sql_points)
        (count,) = connection.execute("SELECT COUNT(*) FROM pts").fetchone()
        assert count == 60
        (x0,) = connection.execute("SELECT x FROM pts WHERE rowidx = 0").fetchone()
        assert x0 == pytest.approx(float(sql_points["x"][0]))
        connection.close()

    def test_keyword_and_hyphenated_identifiers_round_trip(self):
        # Regression: names were interpolated raw into the DDL, so a table
        # named after a SQL keyword (or the workload builders' hyphenated
        # names like "neighbors-S") corrupted the CREATE TABLE statement.
        table = Table(
            {"select": [1.0, 2.0], "group": [3.0, 4.0], "order-by": [5.0, 6.0]},
            name="table-S",
        )
        connection = table_to_sqlite(table)
        (count,) = connection.execute('SELECT COUNT(*) FROM "table-S"').fetchone()
        assert count == 2
        values = connection.execute(
            'SELECT "select", "group", "order-by" FROM "table-S" ORDER BY rowidx'
        ).fetchall()
        assert values == [(1.0, 3.0, 5.0), (2.0, 4.0, 6.0)]
        connection.close()

    def test_quoting_is_not_an_escape_hatch(self):
        # A malicious name must end up as data (one weirdly named table),
        # never as executable SQL.
        evil = 'x" (y REAL); DROP TABLE "x'
        table = Table({"x": [1.0]}, name=evil)
        connection = table_to_sqlite(table)
        (count,) = connection.execute(
            "SELECT COUNT(*) FROM sqlite_master WHERE type = 'table'"
        ).fetchone()
        assert count == 1
        (name,) = connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        ).fetchone()
        assert name == evil
        connection.close()

    def test_backend_on_hyphenated_workload_names(self):
        # The counting-query sqlite backend inherits quoting end to end.
        rng = np.random.default_rng(3)
        points = rng.uniform(0.0, 5.0, size=(40, 2))
        table = Table({"x": points[:, 0], "y": points[:, 1]}, name="neighbors-S")
        predicate = SkybandPredicate("x", "y", k=3)
        from repro.query.counting import CountingQuery

        numpy_query = CountingQuery(table, predicate, cache_labels=False)
        sql_query = CountingQuery(table, predicate, backend="sqlite", cache_labels=False)
        indices = np.arange(40)
        assert np.array_equal(numpy_query.evaluate(indices), sql_query.evaluate(indices))


class TestSkybandSQL:
    def test_full_query_matches_numpy_predicate(self, sql_points):
        k = 3
        expected = int(SkybandPredicate("x", "y", k=k).evaluate_all(sql_points).sum())
        with SQLCountingBackend(sql_points) as backend:
            assert backend.skyband_count_full_query("x", "y", k) == expected

    def test_per_object_predicate_matches_numpy(self, sql_points):
        k = 3
        predicate = SkybandPredicate("x", "y", k=k)
        labels = predicate.evaluate_all(sql_points)
        with SQLCountingBackend(sql_points) as backend:
            for index in range(0, 60, 6):
                assert backend.skyband_predicate("x", "y", k, index) == bool(labels[index])

    def test_count_with_predicate_helper(self, sql_points):
        k = 2
        predicate = SkybandPredicate("x", "y", k=k)
        labels = predicate.evaluate_all(sql_points)
        subset = list(range(0, 60, 5))
        with SQLCountingBackend(sql_points) as backend:
            count = backend.count_with_predicate(
                "skyband", subset, x_column="x", y_column="y", k=k
            )
        assert count == int(labels[subset].sum())

    def test_unknown_predicate_rejected(self, sql_points):
        with SQLCountingBackend(sql_points) as backend:
            with pytest.raises(ValueError):
                backend.count_with_predicate("bogus", [0])


class TestNeighborSQL:
    def test_full_query_matches_numpy_predicate(self, sql_points):
        predicate = NeighborCountPredicate("x", "y", max_neighbors=2, distance=1.5)
        expected = int(predicate.evaluate_all(sql_points).sum())
        with SQLCountingBackend(sql_points) as backend:
            assert backend.neighbor_count_full_query("x", "y", 2, 1.5) == expected

    def test_per_object_predicate_matches_numpy(self, sql_points):
        predicate = NeighborCountPredicate("x", "y", max_neighbors=2, distance=1.5)
        labels = predicate.evaluate_all(sql_points)
        with SQLCountingBackend(sql_points) as backend:
            for index in range(0, 60, 7):
                assert backend.neighbor_predicate("x", "y", 2, 1.5, index) == bool(labels[index])
