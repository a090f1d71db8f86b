"""Pluggable query backends: where the object set lives and ``q`` executes.

The paper's Q1→Q2+Q3 rewriting only requires two physical capabilities from
the data substrate: enumerate the object set (cheap) and evaluate the
expensive per-object predicate on demand.  :class:`QueryBackend` promotes
that seam into a first-class abstraction with one backend per engine:

* :class:`NumpyBackend` — the in-memory columnar :class:`~repro.query.table.Table`
  driven through the vectorized predicate kernels (the historical
  behaviour of :class:`~repro.query.counting.CountingQuery`);
* :class:`SqliteBackend` — a real SQL engine: the table is materialised into
  sqlite3 and the built-in :class:`~repro.query.predicates.NeighborCountPredicate`
  / :class:`~repro.query.predicates.SkybandPredicate` are pushed down as
  correlated COUNT subqueries that stop at the predicate's threshold (Q3 as
  a database would run it).

**The parity contract.**  Backends are *representations*, never semantics:
for any index set, every backend must return labels byte-identical to
``NumpyBackend`` (float64, same order), and exact ground truth must match
bit-for-bit as well.  Estimators draw their randomness from seeded streams
and consume only labels, so label parity makes every estimate, cut point and
oracle-call count byte-identical across backends — the invariant enforced by
``tests/test_backend_parity.py`` and the ``backend-parity`` CI step (see
``repro.experiments.parity``).  The SQL pushdown preserves the invariant by
replaying the kernels' float64 arithmetic operation for operation: sqlite
stores IEEE-754 doubles, the distance test ``(dx*dx + dy*dy) <= d**2`` rounds
each step exactly like the numpy kernels, and the skyband test is pure
comparisons.

**Capabilities.**  Every backend answers :meth:`QueryBackend.capabilities`
with the tuple of capability tokens it implements:

* ``evaluate`` — labels on demand (every backend);
* ``predicate-pushdown`` — per-object labels computed by correlated COUNT
  subqueries inside the engine (:class:`SqliteBackend` over a built-in
  predicate).

Randomness never moves: seeds are drawn client-side and only *label
evaluation* is pushed down, which is what keeps every estimate byte-identical
across backends.

Backends are named by a spec string — ``"numpy"``, ``"sqlite"`` or
``"sqlite:database=/path"`` — so the choice travels through pickle-safe
descriptions (:class:`~repro.workloads.queries.WorkloadSpec`,
:class:`~repro.parallel.methods.MethodSpec`) and is part of the deterministic
task fingerprint.
"""

from __future__ import annotations

import sqlite3
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.query.predicates import NeighborCountPredicate, Predicate, SkybandPredicate
from repro.query.sql import quote_identifier, table_to_sqlite
from repro.query.table import Table
from repro.resilience.faults import active_plan
from repro.resilience.retry import backoff_delays

#: Spec names accepted by :func:`make_backend` (``"sqlite"`` accepts
#: ``key=value`` options, see :data:`SQLITE_OPTION_DEFAULTS`).
BACKEND_NAMES = ("numpy", "sqlite")

#: Capability tokens a backend may advertise via ``capabilities()``.
CAP_EVALUATE = "evaluate"
CAP_PREDICATE_PUSHDOWN = "predicate-pushdown"

#: Option vocabulary of the ``sqlite`` spec and the default each key
#: canonicalises away (``sqlite:database=:memory:`` re-renders as ``sqlite``).
SQLITE_OPTION_DEFAULTS = {"database": ":memory:"}

#: Most rows a single ``IN (...)`` probe may name; kept under sqlite's
#: historical 999-parameter limit with room for the predicate parameters.
_SQL_BATCH_ROWS = 500


class QueryBackend(ABC):
    """Physical substrate behind a :class:`~repro.query.counting.CountingQuery`.

    A backend binds one (table, predicate) pair and answers the four
    questions the estimators ask: how many objects exist, what are their
    features, what does ``q`` say about these objects, and what is the exact
    ground truth.  It performs **no accounting** — the counting query charges
    evaluations; the backend only produces labels.
    """

    #: canonical spec string that rebuilds this backend via :func:`make_backend`.
    spec: str = ""

    def __init__(self, table: Table, predicate: Predicate) -> None:
        self.table = table
        self.predicate = predicate

    # -- object enumeration ---------------------------------------------------
    @property
    def num_objects(self) -> int:
        """Size of the object set ``O``."""
        return self.table.num_rows

    def object_indices(self) -> np.ndarray:
        """Enumerate the object set (cheap by assumption)."""
        return np.arange(self.num_objects, dtype=np.int64)

    def features(
        self,
        columns: Sequence[str],
        indices: Sequence[int] | np.ndarray | None = None,
    ) -> np.ndarray:
        """Feature block for the given objects (all objects by default)."""
        matrix = self.table.columns(columns)
        if indices is None:
            self._record_scan(matrix.shape[0])
            return matrix
        indices = np.asarray(indices, dtype=np.int64)
        self._record_scan(indices.size)
        return matrix[indices]

    # -- predicate execution --------------------------------------------------
    @abstractmethod
    def evaluate(self, indices: np.ndarray) -> np.ndarray:
        """Labels of ``q`` on the given objects, byte-identical across backends."""

    @abstractmethod
    def evaluate_all(self) -> np.ndarray:
        """Exact label of every object (the experiments' ground truth)."""

    # -- introspection --------------------------------------------------------
    def capabilities(self) -> tuple[str, ...]:
        """Capability tokens this backend implements.

        Every backend can :data:`CAP_EVALUATE`; a backend that computes
        labels inside its engine adds :data:`CAP_PREDICATE_PUSHDOWN`.
        """
        return (CAP_EVALUATE,)

    # -- lifecycle ------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (connections, buffers); idempotent."""

    # -- observability --------------------------------------------------------
    def _record_scan(self, rows: int) -> None:
        """Charge objects labelled or read to the scan counter (obs on only).

        ``rows`` counts the objects a call answers for — on sqlite, the
        distinct objects one ``evaluate`` labels — not the rows the engine
        visits to label them: a correlated ``COUNT`` that reads an index or
        stops early is charged the same as a full scan.
        """
        if obs.enabled():
            obs.record_rows_scanned(int(rows), backend=self.spec)

    def __repr__(self) -> str:
        rendered = "+".join(self.capabilities())
        return (
            f"{type(self).__name__}(spec={self.spec!r}, "
            f"objects={self.num_objects}, capabilities={rendered})"
        )


class NumpyBackend(QueryBackend):
    """The in-memory columnar backend (historical behaviour).

    Per-object evaluation goes through the predicate's vectorized batch
    kernel, bulk ground truth through its exact bulk algorithm — exactly the
    code paths :class:`~repro.query.counting.CountingQuery` used before the
    backend seam existed, so this backend *defines* the parity contract's
    reference labels.
    """

    spec = "numpy"

    def evaluate(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        self._record_scan(indices.size)
        return np.asarray(self.predicate.evaluate_batch(self.table, indices), dtype=np.float64)

    def evaluate_all(self) -> np.ndarray:
        self._record_scan(self.num_objects)
        return np.asarray(self.predicate.evaluate_all(self.table), dtype=np.float64)


@dataclass(frozen=True)
class _PushdownPlan:
    """SQL fragments evaluating one built-in predicate inside sqlite.

    ``label_expression`` computes the 0/1 label of the row aliased ``o1``
    as a correlated subquery; ``parameters`` are its positional bindings.
    ``index_columns`` names the covering index the subquery reads: the
    range probe walks its leading column and every other column it needs
    (the rest of the index plus ``rowidx``, the rowid every sqlite index
    carries) is read from the index entry, never from the table row.
    """

    label_expression: str
    parameters: tuple[float | int, ...]
    index_columns: tuple[str, ...]


def _neighbor_plan(table: Table, predicate: NeighborCountPredicate, name: str) -> _PushdownPlan:
    x = quote_identifier(predicate.x_column)
    y = quote_identifier(predicate.y_column)
    # Index-friendly prefilter on x.  The slack term makes the rounded
    # bounds provably cover every point within ``distance`` (the subtraction
    # rounds by at most ~|x| * 2^-53, orders of magnitude below the slack),
    # so the prefilter is a strict superset of the exact distance test and
    # cannot change labels.
    x_values = np.asarray(table.column(predicate.x_column), dtype=np.float64)
    max_abs = float(np.max(np.abs(x_values))) if x_values.size else 0.0
    slack = 1e-9 * (max_abs + predicate.distance + 1.0)
    width = predicate.distance + slack
    # Threshold early exit.  The inner SELECT stops after L = k + 1 matching
    # neighbours, so the outer COUNT sees min(c, L) for a true count c.  That
    # is exact: if c <= k then min(c, L) = c <= k, and if c > k then
    # min(c, L) = k + 1 > k, so ``min(c, L) <= k`` holds exactly when
    # ``c <= k``.  Which L neighbours the scan happens to meet first does not
    # matter, so the label is the same in any scan order.
    expression = (
        f"(SELECT COUNT(*) FROM (SELECT 1 FROM {name} o2"
        f" WHERE o2.{x} >= o1.{x} - ? AND o2.{x} <= o1.{x} + ?"
        f" AND o2.rowidx != o1.rowidx"
        f" AND ((o2.{x} - o1.{x}) * (o2.{x} - o1.{x})"
        f" + (o2.{y} - o1.{y}) * (o2.{y} - o1.{y})) <= ? LIMIT ?)) <= ?"
    )
    # ``distance**2`` is scalar pow, matching the kernels' ``radius**2``.
    parameters = (
        width,
        width,
        predicate.distance**2,
        predicate.max_neighbors + 1,
        float(predicate.max_neighbors),
    )
    return _PushdownPlan(
        expression, parameters, index_columns=(predicate.x_column, predicate.y_column)
    )


def _skyband_plan(predicate: SkybandPredicate, name: str) -> _PushdownPlan:
    x = quote_identifier(predicate.x_column)
    y = quote_identifier(predicate.y_column)
    # Pure comparisons; the row itself fails the strict clause, exactly as in
    # ``dominance_count_single``, so no rowidx exclusion is needed.  The same
    # early exit as the neighbour plan with L = k: min(c, k) < k exactly
    # when c < k.
    expression = (
        f"(SELECT COUNT(*) FROM (SELECT 1 FROM {name} o2"
        f" WHERE o2.{x} >= o1.{x} AND o2.{y} >= o1.{y}"
        f" AND (o2.{x} > o1.{x} OR o2.{y} > o1.{y}) LIMIT ?)) < ?"
    )
    return _PushdownPlan(
        expression,
        (max(predicate.k, 0), float(predicate.k)),
        index_columns=(predicate.x_column, predicate.y_column),
    )


class SqliteBackend(QueryBackend):
    """Execute Q3 inside sqlite3.

    The object table is materialised into a sqlite database (in memory
    unless ``database`` names a file) and the two built-in predicates are
    pushed down as correlated COUNT subqueries — batched per-object probes
    and a single bulk pass for ground truth.  Each subquery stops counting
    once its threshold is decided (``max_neighbors + 1`` neighbours, ``k``
    dominators) and is served from one covering ``(x, y)`` index: a range
    probe on x instead of a full scan per object, with y and ``rowidx`` read
    from the index entries.

    Predicates without a SQL translation (user-defined
    :class:`~repro.query.predicates.CallablePredicate`) fall back to the
    in-memory kernels; the backend still owns enumeration and feature
    gathering, and label parity is trivially preserved.  Labels, cut points,
    oracle-call counts and seeded estimates are byte-identical to
    :class:`NumpyBackend` — the parity CLI/CI gate runs the whole workflow.

    ``make_backend("sqlite:database=...")`` builds the same
    backend from a spec string — the form that travels through workload
    fingerprints; a backend built from keywords reports that same
    canonical ``spec``.
    """

    spec = "sqlite"

    #: Bounded recovery for held-lock errors that survive ``busy_timeout``:
    #: each probe batch retries this many times with short jittered backoff
    #: before the ``OperationalError`` propagates.
    LOCK_RETRY_LIMIT = 3

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        *,
        database: str = ":memory:",
    ) -> None:
        super().__init__(table, predicate)
        if database != SQLITE_OPTION_DEFAULTS["database"]:
            self.spec = f"sqlite:database={database}"
        self.table_name = table.name or "objects"
        # ``check_same_thread=False``: the estimate server evaluates requests
        # on executor threads while a per-workload lock serialises access to
        # any one backend; combined with the WAL/busy_timeout pragmas from
        # ``table_to_sqlite`` this makes concurrent service reads safe.
        self.connection: sqlite3.Connection | None = table_to_sqlite(
            table, table_name=self.table_name, check_same_thread=False, database=database
        )
        quoted = quote_identifier(self.table_name)
        if isinstance(predicate, NeighborCountPredicate):
            self._plan: _PushdownPlan | None = _neighbor_plan(table, predicate, quoted)
        elif isinstance(predicate, SkybandPredicate):
            self._plan = _skyband_plan(predicate, quoted)
        else:
            self._plan = None
        if self._plan is not None:
            columns = ", ".join(quote_identifier(c) for c in self._plan.index_columns)
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS {quote_identifier('ix_' + self.table_name)} "
                f"ON {quoted} ({columns})"
            )
        self._quoted_name = quoted

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def _require_connection(self) -> sqlite3.Connection:
        if self.connection is None:
            raise RuntimeError("sqlite backend is closed")
        return self.connection

    def _query_rows(self, sql: str, bindings: Sequence) -> list:
        """One probe batch, with bounded retry on held-lock errors.

        ``busy_timeout`` already absorbs most contention inside sqlite; this
        covers the residue — a writer that outlives the timeout, or an
        injected ``lock`` fault from the active plan — by retrying the whole
        statement on ``database is locked`` / ``busy`` with short jittered
        backoff.  The statement is a pure read, so a retried batch returns
        bytes identical to an uncontended one.  Any other operational error
        propagates untouched.
        """
        plan = active_plan()
        delays = backoff_delays(self.LOCK_RETRY_LIMIT, base=0.01, cap=0.25, seed=0)
        attempt = 0
        while True:
            try:
                if plan is not None:
                    plan.sqlite_batch()
                return self._require_connection().execute(sql, bindings).fetchall()
            except sqlite3.OperationalError as exc:
                message = str(exc).lower()
                if "locked" not in message and "busy" not in message:
                    raise
                if attempt >= len(delays):
                    raise
                if obs.enabled():
                    obs.registry().inc(obs.LOCK_RETRIES, backend=self.spec)
                time.sleep(delays[attempt])
                attempt += 1

    def capabilities(self) -> tuple[str, ...]:
        tokens = [CAP_EVALUATE]
        if self._plan is not None:
            tokens.append(CAP_PREDICATE_PUSHDOWN)
        return tuple(tokens)

    def evaluate_layout(self, *args, **kwargs):
        """Removed; kept as a stub because perfbench's span targets name it."""
        raise NotImplementedError("estimator-stage pushdown was removed")

    def evaluate_permutation(self, *args, **kwargs):
        """Removed; kept as a stub because perfbench's span targets name it."""
        raise NotImplementedError("estimator-stage pushdown was removed")

    def evaluate(self, indices: np.ndarray) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.int64)
        if self._plan is None:
            # No SQL translation: the in-memory kernels produce the labels;
            # the database is storage only.
            self._record_scan(indices.size)
            return np.asarray(
                self.predicate.evaluate_batch(self.table, indices), dtype=np.float64
            )
        if indices.size == 0:
            return np.empty(0, dtype=np.float64)
        # Mirror numpy's fancy-indexing semantics exactly — negative indices
        # wrap, anything else out of range raises — so label parity with the
        # in-memory backends holds for *any* index set, not just 0..N-1.
        indices = np.where(indices < 0, indices + self.num_objects, indices)
        out_of_range = (indices < 0) | (indices >= self.num_objects)
        if np.any(out_of_range):
            bad = indices[out_of_range][:5].tolist()
            raise IndexError(f"object indices {bad} out of range for {self.num_objects} objects")
        self._require_connection()
        unique = np.unique(indices)
        self._record_scan(unique.size)
        record_roundtrips = obs.enabled()
        labels_by_index: dict[int, float] = {}
        for start in range(0, unique.size, _SQL_BATCH_ROWS):
            batch = unique[start : start + _SQL_BATCH_ROWS]
            if record_roundtrips:
                obs.registry().inc(obs.SQL_ROUNDTRIPS, backend=self.spec)
            placeholders = ", ".join("?" for _ in range(batch.size))
            sql = (
                f"SELECT o1.rowidx, {self._plan.label_expression} "
                f"FROM {self._quoted_name} o1 WHERE o1.rowidx IN ({placeholders})"
            )
            bindings = (*self._plan.parameters, *(int(i) for i in batch))
            for rowidx, label in self._query_rows(sql, bindings):
                labels_by_index[int(rowidx)] = float(label)
        # Every in-range rowidx exists in the materialised table, so the
        # lookups below cannot miss.
        return np.array([labels_by_index[int(i)] for i in indices], dtype=np.float64)

    def evaluate_all(self) -> np.ndarray:
        if self._plan is None:
            self._record_scan(self.num_objects)
            return np.asarray(self.predicate.evaluate_all(self.table), dtype=np.float64)
        self._require_connection()
        self._record_scan(self.num_objects)
        if obs.enabled():
            obs.registry().inc(obs.SQL_ROUNDTRIPS, backend=self.spec)
        sql = (
            f"SELECT {self._plan.label_expression} "
            f"FROM {self._quoted_name} o1 ORDER BY o1.rowidx"
        )
        rows = self._query_rows(sql, self._plan.parameters)
        return np.fromiter((float(label) for (label,) in rows), dtype=np.float64, count=len(rows))


def _parse_backend_spec(spec: str):
    """Parse + validate one backend spec string through the shared grammar."""
    # Lazy import: repro.experiments.__init__ transitively imports this
    # module, so a top-level import of the grammar would be circular.
    from repro.experiments.config import SpecString

    parsed = SpecString.parse("backend", spec, BACKEND_NAMES, option_names=("sqlite",))
    return parsed.validate_options(tuple(SQLITE_OPTION_DEFAULTS)).without_default_options(
        SQLITE_OPTION_DEFAULTS
    )


def canonical_backend_spec(spec: str | None) -> str:
    """Normalise a backend spec to its canonical string form.

    ``None`` means the default (``"numpy"``); a string is validated and
    normalised — an option spelling its default is dropped
    (``"sqlite:database=:memory:"`` → ``"sqlite"``) — so equal configurations
    share one spelling in task fingerprints and cache keys.
    """
    if spec is None:
        return "numpy"
    return _parse_backend_spec(spec).canonical


def make_backend(
    spec: "str | QueryBackend | None",
    table: Table,
    predicate: Predicate,
) -> QueryBackend:
    """Build the backend named by ``spec`` over a (table, predicate) pair.

    An already-built :class:`QueryBackend` passes through untouched (after a
    consistency check that it binds the same table), which lets callers hand
    a custom backend implementation directly to
    :class:`~repro.query.counting.CountingQuery`.
    """
    if isinstance(spec, QueryBackend):
        if spec.table is not table:
            raise ValueError("backend instance is bound to a different table")
        if spec.predicate is not predicate:
            raise ValueError("backend instance is bound to a different predicate")
        return spec
    parsed = _parse_backend_spec("numpy" if spec is None else spec)
    if parsed.name == "numpy":
        return NumpyBackend(table, predicate)
    return SqliteBackend(table, predicate, database=parsed.option("database", ":memory:"))
