"""sqlite3 materialisation of a :class:`~repro.query.table.Table`.

:class:`~repro.query.backends.SqliteBackend` runs the paper's per-object
predicate (Q3) inside sqlite3 over a table materialised here; these helpers
quote identifiers safely and open connections with the pragmas concurrent
service reads need.
"""

from __future__ import annotations

import sqlite3

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
