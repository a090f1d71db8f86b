"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

Zero-dependency by design (stdlib only) so it can be imported by every layer
— kernels, backends, warm-pool workers — without dragging numpy into the
observability path.  Three requirements shaped the API:

* **Determinism safety.**  Recording a metric can never perturb an estimate:
  values come from ``time.perf_counter()`` and plain integer accounting, and
  the registry is only *written* when :func:`repro.obs.trace.enabled` says
  so at the call site.
* **Mergeability.**  Warm-pool workers run in separate processes; a worker
  snapshots its registry (:meth:`MetricsRegistry.snapshot`, plain picklable
  dicts) and ships it back with the chunk results, and the parent folds it
  in with :meth:`MetricsRegistry.merge` — counters and histogram buckets
  add, gauges are last-write-wins.
* **Stable output.**  ``as_dict`` / the Prometheus exposition sort metric
  names and label sets so goldens and diffs are reproducible.

Histograms use fixed exponential second-scale buckets (sub-millisecond to
tens of seconds) and derive p50/p95/p99 by linear interpolation inside the
winning bucket — the standard fixed-bucket estimate, cheap and mergeable.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, Iterable, Mapping, Tuple

LabelKey = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelKey]

#: Default histogram buckets (upper bounds, seconds / generic magnitudes).
#: The final implicit bucket is +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

# Metric names used by the built-in instrumentation; collected here so call
# sites, exporters, and tests agree on spelling.
ORACLE_CALLS = "repro_oracle_calls_total"
ORACLE_SECONDS = "repro_oracle_seconds_total"
PREDICATE_BATCH_ROWS = "repro_predicate_batch_rows"
BACKEND_ROWS_SCANNED = "repro_backend_rows_scanned_total"
SQL_ROUNDTRIPS = "repro_sql_roundtrips_total"
#: Nothing records this counter; the name stays because perfbench/run.py
#: sums it.
SQL_STAGE_QUERIES = "repro_sql_stage_queries_total"
STAGE_SECONDS = "repro_stage_seconds"
TRIALS_TOTAL = "repro_trials_total"
TRIAL_SECONDS = "repro_trial_seconds"
POOL_CHUNKS = "repro_pool_chunks_total"
POOL_CHUNK_TRIALS = "repro_pool_chunk_trials"
POOL_DISPATCH_SECONDS = "repro_pool_dispatch_seconds"
POOL_QUEUE_WAIT_SECONDS = "repro_pool_queue_wait_seconds"
HTTP_REQUEST_SECONDS = "repro_http_request_seconds"
DESIGN_CACHE_REQUESTS = "repro_design_cache_requests_total"
FAULTS_INJECTED = "repro_faults_injected_total"
CHUNK_RETRIES = "repro_chunk_retries_total"
POOL_REBUILDS = "repro_pool_rebuilds_total"
REQUESTS_SHED = "repro_requests_shed_total"
REQUEST_DEADLINES = "repro_request_deadline_total"
RETRY_BACKOFF_SECONDS = "repro_client_retry_backoff_seconds"
LOCK_RETRIES = "repro_lock_retries_total"
ORACLE_RETRIES = "repro_oracle_retries_total"
DYNPGM_CANDIDATES = "repro_dynpgm_candidates"
DYNPGM_DPS_SOLVED = "repro_dynpgm_dps_solved"
ESTIMATOR_FALLBACKS = "repro_estimator_fallbacks_total"


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Histogram:
    """Fixed-bucket histogram: cumulative-free bucket counts + sum + count."""

    __slots__ = ("buckets", "counts", "total", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        # One count per finite bucket plus the +Inf overflow bucket.
        self.counts = [0] * (len(buckets) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """Interpolated percentile (0 < q < 1) from the bucket counts."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.buckets[index - 1] if index > 0 else 0.0
                if index >= len(self.buckets):
                    # +Inf bucket: the best estimate is the largest finite bound.
                    return self.buckets[-1]
                upper = self.buckets[index]
                fraction = (rank - cumulative) / bucket_count
                return lower + (upper - lower) * fraction
            cumulative += bucket_count
        return self.buckets[-1]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }

    def to_snapshot(self) -> Tuple[Tuple[float, ...], Tuple[int, ...], float, int]:
        return (self.buckets, tuple(self.counts), self.total, self.count)

    def merge_snapshot(
        self, snapshot: Tuple[Tuple[float, ...], Tuple[int, ...], float, int]
    ) -> None:
        buckets, counts, total, count = snapshot
        if tuple(buckets) != self.buckets:
            # Bucket layouts only diverge across versions; re-bucketing is
            # lossy, so adopt the incoming layout wholesale.
            self.buckets = tuple(buckets)
            self.counts = list(counts)
        else:
            for index, value in enumerate(counts):
                self.counts[index] += value
        self.total += total
        self.count += count


class MetricsRegistry:
    """A labeled collection of counters, gauges, and histograms.

    Thread-safe (one lock; every mutation is a few dict operations) and
    fully picklable through :meth:`snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[MetricKey, float] = {}
        self._gauges: Dict[MetricKey, float] = {}
        self._histograms: Dict[MetricKey, _Histogram] = {}

    # -- writes ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + amount

    def set_counter(self, name: str, value: float, **labels: object) -> None:
        """Overwrite a counter (SessionStats-style absolute assignment)."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = value

    def observe(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = _Histogram(tuple(buckets))
            histogram.observe(value)

    # -- reads -----------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._counters.get((name, _label_key(labels)), 0.0)

    def counter_total(self, name: str, **labels: object) -> float:
        """Sum of a counter across label sets matching the given subset.

        With no ``labels`` this sums every label set of the counter; with
        keywords it sums only the sets carrying those exact (key, value)
        pairs — e.g. ``counter_total(ORACLE_CALLS, stage="lss.pilot")``
        across whatever other labels were recorded.
        """
        wanted = set(_label_key(labels))
        with self._lock:
            return sum(
                v
                for (n, key), v in self._counters.items()
                if n == name and wanted.issubset(key)
            )

    def gauge_value(self, name: str, **labels: object) -> float:
        with self._lock:
            return self._gauges.get((name, _label_key(labels)), 0.0)

    def histogram_summary(self, name: str, **labels: object) -> dict:
        with self._lock:
            histogram = self._histograms.get((name, _label_key(labels)))
            if histogram is None:
                return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
            return histogram.summary()

    def histogram_sums(self, name: str) -> Dict[LabelKey, float]:
        """Per-label-set sum of observations (stage-seconds breakdowns)."""
        with self._lock:
            return {
                labels: histogram.total
                for (metric, labels), histogram in self._histograms.items()
                if metric == name
            }

    def as_dict(self) -> dict:
        """Deterministically ordered plain-data view (JSON export, goldens)."""
        with self._lock:
            counters = {
                self._format_key(key): value
                for key, value in sorted(self._counters.items())
            }
            gauges = {
                self._format_key(key): value
                for key, value in sorted(self._gauges.items())
            }
            histograms = {
                self._format_key(key): histogram.summary()
                for key, histogram in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    @staticmethod
    def _format_key(key: MetricKey) -> str:
        name, labels = key
        if not labels:
            return name
        rendered = ",".join(f'{label}="{value}"' for label, value in labels)
        return f"{name}{{{rendered}}}"

    # -- cross-process plumbing -----------------------------------------

    def snapshot(self) -> dict:
        """Picklable copy of the registry state (worker → parent shipping)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    key: histogram.to_snapshot()
                    for key, histogram in self._histograms.items()
                },
            }

    def merge(self, snapshot: Mapping) -> None:
        """Fold a snapshot in: counters/histograms add, gauges last-write-wins."""
        with self._lock:
            for key, value in snapshot.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, value in snapshot.get("gauges", {}).items():
                self._gauges[key] = value
            for key, histogram_snapshot in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(key)
                if histogram is None:
                    histogram = self._histograms[key] = _Histogram(
                        tuple(histogram_snapshot[0])
                    )
                histogram.merge_snapshot(histogram_snapshot)

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- iteration for exporters ----------------------------------------

    def iter_counters(self) -> Iterable[Tuple[MetricKey, float]]:
        with self._lock:
            return sorted(self._counters.items())

    def iter_gauges(self) -> Iterable[Tuple[MetricKey, float]]:
        with self._lock:
            return sorted(self._gauges.items())

    def iter_histograms(self) -> Iterable[Tuple[MetricKey, "_Histogram"]]:
        with self._lock:
            return sorted(self._histograms.items())


#: The process-global registry all gated instrumentation writes to.
_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry used by the built-in instrumentation."""
    return _GLOBAL
