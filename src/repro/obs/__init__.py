"""repro.obs — determinism-safe observability: spans, metrics, exporters.

The subsystem is off by default; enable it with the ``REPRO_OBS``
environment variable or :func:`set_enabled`.  The hard invariant every
instrumentation site honours: **observability on vs. off is byte-identical**
— spans and metrics read monotonic clocks and integer counts only, never
RNG streams, fingerprints, or estimate values (enforced by
``tests/test_obs.py``).

Typical use::

    from repro import obs

    obs.set_enabled(True)
    ... run estimates ...
    print(obs.export.prometheus_text(obs.registry()))
"""

from __future__ import annotations

from repro.obs import export, metrics, trace
from repro.obs.metrics import (
    BACKEND_ROWS_SCANNED,
    CHUNK_RETRIES,
    DESIGN_CACHE_REQUESTS,
    DYNPGM_CANDIDATES,
    DYNPGM_DPS_SOLVED,
    FAULTS_INJECTED,
    HTTP_REQUEST_SECONDS,
    LOCK_RETRIES,
    ORACLE_CALLS,
    ORACLE_RETRIES,
    POOL_CHUNK_TRIALS,
    POOL_CHUNKS,
    POOL_DISPATCH_SECONDS,
    POOL_QUEUE_WAIT_SECONDS,
    POOL_REBUILDS,
    PREDICATE_BATCH_ROWS,
    REQUEST_DEADLINES,
    REQUESTS_SHED,
    RETRY_BACKOFF_SECONDS,
    SQL_ROUNDTRIPS,
    SQL_STAGE_QUERIES,
    STAGE_SECONDS,
    TRIAL_SECONDS,
    TRIALS_TOTAL,
    MetricsRegistry,
    registry,
)
from repro.obs.trace import (
    Span,
    clear_traces,
    current_span,
    current_span_name,
    enabled,
    recent_traces,
    set_enabled,
    span,
    stage,
)

__all__ = [
    "BACKEND_ROWS_SCANNED",
    "CHUNK_RETRIES",
    "DESIGN_CACHE_REQUESTS",
    "DYNPGM_CANDIDATES",
    "DYNPGM_DPS_SOLVED",
    "FAULTS_INJECTED",
    "HTTP_REQUEST_SECONDS",
    "LOCK_RETRIES",
    "MetricsRegistry",
    "ORACLE_CALLS",
    "ORACLE_RETRIES",
    "POOL_CHUNKS",
    "POOL_CHUNK_TRIALS",
    "POOL_DISPATCH_SECONDS",
    "POOL_QUEUE_WAIT_SECONDS",
    "POOL_REBUILDS",
    "PREDICATE_BATCH_ROWS",
    "REQUESTS_SHED",
    "REQUEST_DEADLINES",
    "RETRY_BACKOFF_SECONDS",
    "SQL_ROUNDTRIPS",
    "SQL_STAGE_QUERIES",
    "STAGE_SECONDS",
    "Span",
    "TRIALS_TOTAL",
    "TRIAL_SECONDS",
    "clear_traces",
    "current_span",
    "current_span_name",
    "enabled",
    "export",
    "metrics",
    "recent_traces",
    "record_dynpgm_design",
    "record_oracle_calls",
    "record_rows_scanned",
    "record_stage_query",
    "registry",
    "reset",
    "set_enabled",
    "span",
    "stage",
    "trace",
]


def reset() -> None:
    """Clear the global registry and the retained traces (tests, benchmarks)."""
    registry().reset()
    clear_traces()


def record_oracle_calls(batch_size: int) -> None:
    """Unified oracle-call accounting, attributed to the active stage span.

    Called from ``CountingQuery.evaluate`` when observability is enabled:
    one counter increment per predicate evaluation plus a batch-size
    histogram observation — the paper's central cost currency, now visible
    per learning/pilot/stage-II stage.
    """
    stage_name = current_span_name() or "unattributed"
    reg = registry()
    reg.inc(ORACLE_CALLS, float(batch_size), stage=stage_name)
    reg.observe(
        PREDICATE_BATCH_ROWS,
        float(batch_size),
        buckets=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0),
        stage=stage_name,
    )


def record_rows_scanned(rows: int, backend: str) -> None:
    """Backend-level scan accounting (rows touched to answer predicates)."""
    registry().inc(BACKEND_ROWS_SCANNED, float(rows), backend=backend)


def record_stage_query(backend: str) -> None:
    """One pushed-down estimator stage answered by one aggregate SQL query.

    Attributed to the active stage span (``lws.sampling``, ``lss.pilot``,
    ``lss.stage2``) so the parity/pushdown tests can assert the hard claim
    of pushdown v2: under ``pushdown=full``, each estimator stage costs
    exactly one SQL round trip instead of per-row probe batches.
    """
    registry().inc(
        SQL_STAGE_QUERIES, backend=backend, stage=current_span_name() or "unattributed"
    )


def record_dynpgm_design(candidates: int, dps_solved: int) -> None:
    """One DynPgm design: its candidate-cut count and the DPs it solved.

    ``candidates`` is C, the size of the boundary grid the DP runs over;
    ``dps_solved`` counts the distinct admitted guesses of the auxiliary-sum
    grid whose DP was run (guesses admitting no stratum that ends at the
    final cut need none).  Design time grows like ``dps_solved · C²``.
    """
    reg = registry()
    reg.observe(
        DYNPGM_CANDIDATES,
        float(candidates),
        buckets=(64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0),
    )
    reg.observe(
        DYNPGM_DPS_SOLVED,
        float(dps_solved),
        buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    )
