"""The counting-query abstraction: cheap object enumeration, expensive predicate.

:class:`CountingQuery` is the interface every estimator in the library works
against.  It binds a :class:`~repro.query.table.Table` (the object set
produced by Q2) to a :class:`~repro.query.predicates.Predicate` (the
expensive per-object condition Q3), tracks how many predicate evaluations
have been spent, and exposes exact ground truth for experiment validation.

Physical execution is delegated to a pluggable
:class:`~repro.query.backends.QueryBackend` (in-memory numpy kernels, or SQL
pushdown into sqlite3).  Backends
are interchangeable representations: labels, accounting and therefore every
seeded estimate are byte-identical whichever backend executes the query.
"""

from __future__ import annotations

import contextlib
import time
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from repro import obs
from repro.query.predicates import Predicate
from repro.query.table import Table
from repro.resilience.faults import TransientFaultError, active_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.query.backends import QueryBackend


class CountingQuery:
    """A counting query ``C(O, q)`` over a table.

    Args:
        table: the object set ``O`` (one object per row).
        predicate: the expensive per-object predicate ``q``.
        feature_columns: columns handed to the classifier as features; by
            default the columns the predicate declares it references (the
            paper's feature-selection heuristic).
        name: identifier used in reports.
        cache_labels: when true (the default for experiments), the predicate
            is bulk-evaluated once and per-object evaluations are served from
            the cache.  Evaluation accounting is unaffected — the paper's
            cost model counts predicate evaluations, not wall-clock — but
            experiments over many trials avoid re-running the expensive scan.
        backend: where the query physically executes — a spec string
            (``"numpy"``, ``"sqlite"``, ``"sqlite:database=<path>"``),
            a prebuilt :class:`~repro.query.backends.QueryBackend`, or
            ``None`` for the in-memory default.  Backends never change
            results: labels and accounting are byte-identical across them.
    """

    def __init__(
        self,
        table: Table,
        predicate: Predicate,
        feature_columns: Sequence[str] | None = None,
        name: str = "counting-query",
        cache_labels: bool = True,
        backend: "str | QueryBackend | None" = None,
    ) -> None:
        from repro.query.backends import make_backend

        self.table = table
        self.predicate = predicate
        self.name = name
        self.cache_labels = cache_labels
        columns = tuple(feature_columns) if feature_columns else tuple(predicate.feature_columns)
        if not columns:
            raise ValueError("no feature columns: pass feature_columns explicitly")
        missing = [column for column in columns if column not in table]
        if missing:
            raise ValueError(f"feature columns {missing} not present in table")
        self.feature_columns = columns
        self.backend = make_backend(backend, table, predicate)

        self._cached_labels: np.ndarray | None = None
        self._evaluations = 0

    @property
    def backend_spec(self) -> str:
        """Canonical spec string of the backend executing this query."""
        return self.backend.spec

    # -- object enumeration --------------------------------------------------
    @property
    def num_objects(self) -> int:
        """Size of the object set ``O``."""
        return self.backend.num_objects

    def object_indices(self) -> np.ndarray:
        """Enumerate the object set (cheap by assumption)."""
        return self.backend.object_indices()

    def features(self, indices: Sequence[int] | np.ndarray | None = None) -> np.ndarray:
        """Feature matrix for the given objects (all objects by default)."""
        return self.backend.features(self.feature_columns, indices)

    # -- predicate evaluation -----------------------------------------------
    @property
    def evaluations(self) -> int:
        """Number of predicate evaluations charged so far."""
        return self._evaluations

    def reset_accounting(self) -> None:
        """Reset the evaluation counters (between experiment trials).

        The label cache survives the reset: accounting measures the paper's
        cost model (predicate evaluations charged to the current trial), not
        whether a bulk scan has physically run, so resetting between trials
        must never re-trigger the expensive full-table evaluation.
        """
        self._evaluations = 0

    @contextlib.contextmanager
    def fresh_accounting(self) -> Iterator["CountingQuery"]:
        """Scope one trial's evaluation accounting.

        Trial runners (serial and per-worker parallel) wrap each trial in
        this context instead of mutating shared runner state, so the
        reset/charge cycle lives with the task that owns the trial.  Each
        parallel worker holds its own query instance, which keeps the
        counters race-free; within a process, trials on the same query must
        not interleave.
        """
        self.reset_accounting()
        yield self

    def _all_labels(self) -> np.ndarray:
        if self._cached_labels is None:
            self._cached_labels = np.asarray(self.backend.evaluate_all(), dtype=np.float64)
        return self._cached_labels

    # -- label-cache sharing --------------------------------------------------
    def export_label_cache(self, compute: bool = False) -> np.ndarray | None:
        """Return the bulk label cache for sharing with sibling queries.

        The parallel engine ships this array to worker processes so that a
        query rebuilt from a :class:`~repro.workloads.queries.WorkloadSpec`
        can skip its own bulk predicate scan.  ``compute=True`` forces the
        scan now (in the parent, once) instead of lazily per worker.
        """
        if compute:
            return self._all_labels()
        return self._cached_labels

    def attach_label_cache(self, labels: np.ndarray | None) -> None:
        """Adopt a bulk label cache computed by an identical sibling query.

        The caller asserts the labels came from the same (table, predicate)
        pair — typically a query built from the same workload spec in
        another process.  Only the length is validated.
        """
        if labels is None:
            return
        labels = np.asarray(labels, dtype=np.float64)
        if labels.shape != (self.num_objects,):
            raise ValueError(
                f"label cache of shape {labels.shape} does not cover {self.num_objects} objects"
            )
        self._cached_labels = labels

    #: Bounded recovery budget for transient oracle-batch failures (injected
    #: by a fault plan, or real flaky backends): retries beyond this raise.
    ORACLE_RETRY_LIMIT = 2

    def _compute_labels(self, indices: np.ndarray) -> np.ndarray:
        if self.cache_labels:
            labels: np.ndarray = self._all_labels()[indices]
            return labels
        # The backend executes the predicate (vectorized kernels or SQL
        # pushdown); label values are byte-identical
        # whichever backend runs, and each index is still charged as one
        # predicate evaluation in evaluate() below.
        return np.asarray(self.backend.evaluate(indices), dtype=np.float64)

    def evaluate(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Evaluate the expensive predicate on the given objects.

        Each call is charged to the query's evaluation counter; estimators
        are compared on this count.

        When a fault plan is active (:mod:`repro.resilience`), each batch
        passes through the plan's oracle-batch site first — an injected
        delay just slows the call, while an injected transient error is
        absorbed by up to :attr:`ORACLE_RETRY_LIMIT` retries.  Labels are a
        pure function of the indices, so a retried batch returns the exact
        bytes of an unfaulted one, and accounting charges the batch once.
        The clock is read only when obs is enabled: the batch's seconds go
        to the oracle-seconds counter.
        """
        indices = np.asarray(indices, dtype=np.int64)
        timed = obs.enabled()
        started = time.perf_counter() if timed else 0.0
        plan = active_plan()
        if plan is None:
            labels = self._compute_labels(indices)
        else:
            failure: TransientFaultError | None = None
            for _attempt in range(1 + self.ORACLE_RETRY_LIMIT):
                try:
                    plan.oracle_batch()
                    labels = self._compute_labels(indices)
                    break
                except TransientFaultError as exc:
                    failure = exc
                    if obs.enabled():
                        obs.registry().inc(obs.ORACLE_RETRIES)
            else:
                assert failure is not None
                raise failure
        self._evaluations += int(indices.size)
        if timed:
            obs.record_oracle_calls(int(indices.size), started)
        return labels

    def evaluate_batch(
        self,
        indices: Sequence[int] | np.ndarray,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Evaluate the predicate over a large index set in bounded chunks.

        Accounting is identical to :meth:`evaluate` (the same total number of
        evaluations is charged), but uncached predicates are driven in
        chunks sized to the data rather than one giant call, which bounds
        peak memory and gives schedulers a natural work unit.  With the
        label cache enabled this collapses to a single fancy-index lookup.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if chunk_size is not None and chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if self.cache_labels or indices.size == 0:
            return self.evaluate(indices)
        if chunk_size is None:
            # Size work units to the data: aim for ~8 chunks, but never make
            # chunks so small that per-call overhead dominates.
            chunk_size = max(256, -(-indices.size // 8))
        # Defensive clamp: a chunk never needs to exceed the index set
        # itself.  The slicing below already handles tiny inputs (a single
        # index lands in exactly one full chunk either way); the clamp makes
        # that invariant explicit rather than incidental to the 256 floor.
        chunk_size = min(chunk_size, indices.size)
        parts = [
            self.evaluate(indices[start : start + chunk_size])
            for start in range(0, indices.size, chunk_size)
        ]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def oracle(self) -> Callable[[np.ndarray], np.ndarray]:
        """Return a label oracle bound to this query (for the estimators)."""
        return self.evaluate

    def predicate_values(self, indices: Sequence[int] | np.ndarray) -> np.ndarray:
        """Raw predicate values for objects whose evaluation was already paid.

        Only available when the predicate thresholds an expensive per-object
        value (``predicate.supports_values``).  This path is deliberately
        **not** charged to accounting: under the paper's cost model the
        expensive part of ``q(o)`` is computing the value, which the caller
        asserts has already been charged through :meth:`evaluate` on exactly
        these indices.  The service layer uses it to re-label a learning set
        under sibling thresholds without spending new oracle calls.
        """
        if not self.predicate.supports_values:
            raise ValueError(
                f"predicate {type(self.predicate).__name__} has no value decomposition"
            )
        indices = np.asarray(indices, dtype=np.int64)
        return self.predicate.evaluate_values(self.table, indices)

    # -- ground truth ---------------------------------------------------------
    def ground_truth_labels(self) -> np.ndarray:
        """Exact label of every object (bulk path; not charged to accounting)."""
        return self._all_labels().copy()

    def true_count(self) -> int:
        """The exact value of ``C(O, q)``."""
        return int(self._all_labels().sum())

    def true_proportion(self) -> float:
        """The exact positive proportion."""
        if self.num_objects == 0:
            return 0.0
        return self.true_count() / self.num_objects

    def __repr__(self) -> str:  # pragma: no cover - debugging convenience
        return (
            f"CountingQuery(name={self.name!r}, objects={self.num_objects}, "
            f"features={self.feature_columns}, backend={self.backend_spec!r})"
        )

