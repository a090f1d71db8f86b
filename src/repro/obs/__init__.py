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

import time

from repro.obs import export, metrics, trace
from repro.obs.metrics import (
    BACKEND_ROWS_SCANNED,
    CHUNK_RETRIES,
    DESIGN_CACHE_REQUESTS,
    DYNPGM_CANDIDATES,
    DYNPGM_DPS_SOLVED,
    ESTIMATOR_FALLBACKS,
    FAULTS_INJECTED,
    HTTP_REQUEST_SECONDS,
    LOCK_RETRIES,
    ORACLE_CALLS,
    ORACLE_RETRIES,
    ORACLE_SECONDS,
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
    "ESTIMATOR_FALLBACKS",
    "FAULTS_INJECTED",
    "HTTP_REQUEST_SECONDS",
    "LOCK_RETRIES",
    "MetricsRegistry",
    "ORACLE_CALLS",
    "ORACLE_RETRIES",
    "ORACLE_SECONDS",
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
    "record_fallback",
    "record_oracle_calls",
    "record_rows_scanned",
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


def record_oracle_calls(batch_size: int, started: float) -> None:
    """Unified oracle accounting, attributed to the active stage span.

    Called from ``CountingQuery.evaluate`` when observability is
    enabled, with ``started`` the :func:`time.perf_counter` reading taken
    when the batch began: one call-counter increment per predicate
    evaluation, the batch's seconds on ``repro_oracle_seconds_total`` and a
    batch-size histogram observation — the paper's central cost currency,
    in calls and in wall-clock, per learning/pilot/stage-II stage.
    """
    seconds = time.perf_counter() - started
    stage_name = current_span_name() or "unattributed"
    reg = registry()
    reg.inc(ORACLE_CALLS, float(batch_size), stage=stage_name)
    reg.inc(ORACLE_SECONDS, seconds, stage=stage_name)
    reg.observe(
        PREDICATE_BATCH_ROWS,
        float(batch_size),
        buckets=(1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0),
        stage=stage_name,
    )


def record_fallback(method: str, kind: str) -> None:
    """One estimate that left its configured path for a fallback.

    ``kind`` names the path taken instead: ``"fixed_height"`` when LSS's
    optimizer found no feasible design, ``"pilot_only"`` when the sampling
    budget cannot pay for a pilot plus a second stage.
    """
    registry().inc(ESTIMATOR_FALLBACKS, method=method, kind=kind)


def record_rows_scanned(rows: int, backend: str) -> None:
    """Backend-level accounting of objects labelled (or read) by one call.

    Despite the metric's name, ``rows`` is the number of objects a backend
    call answers for, not the rows its engine visits: index reads and
    early-exit plans do not change it.
    """
    registry().inc(BACKEND_ROWS_SCANNED, float(rows), backend=backend)


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
