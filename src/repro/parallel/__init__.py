"""Deterministic parallel execution for the experiment harness.

The paper's evaluation is embarrassingly parallel — every figure is a
distribution over independent trials — but naive fan-out breaks the one
property a reproduction cannot give up: seed-exact results.  This package
makes parallelism a pure performance knob:

* :class:`~repro.parallel.pool.WarmPool` — the one trial engine: a
  persistent worker pool whose workers attach zero-copy to shared-memory
  dataset pages (:mod:`~repro.parallel.shm`), resolve the workload **once**
  at start-up, and then stream compact trial tasks; pools are shared
  process-wide so a multi-method sweep pays start-up once.  The one trial
  loop over it is :class:`~repro.workloads.runner.TrialRunner`, whose
  ``workers=`` knob picks in-process or warm-pool execution; results are
  byte-identical to serial execution for the same master seed.
* :mod:`~repro.parallel.shm` — publishes dataset columns, label caches and
  npz-cache pages into ``multiprocessing.shared_memory`` segments with a
  tiny picklable manifest, with pid-guarded unlink-on-exit hygiene.
* :mod:`~repro.parallel.engine` — affinity-aware ``workers=`` resolution
  and :func:`~repro.parallel.engine.ordered_map`, the plain order-preserving
  process-pool map that Table 1, Figure 3, the ablation and batch scoring
  fan out with.
* :class:`~repro.parallel.methods.MethodSpec` /
  :class:`~repro.workloads.queries.WorkloadSpec` /
  :class:`~repro.parallel.tasks.TrialTask` — pickle-safe descriptions of
  what to run, so closures never cross process boundaries;
  :func:`~repro.parallel.tasks.trial_tasks` builds one seeded run's tasks.
* :mod:`~repro.parallel.fingerprint` — byte-exact estimate fingerprints
  used to audit that guarantee.
"""

from repro.parallel.batch import predict_scores_chunked
from repro.parallel.engine import (
    available_workers,
    default_start_method,
    ordered_map,
    reset_oversubscription_warning,
    resolve_worker_count,
)
from repro.parallel.fingerprint import (
    estimate_digest,
    estimate_fingerprint,
    estimates_fingerprint,
    task_fingerprint,
)
from repro.parallel.methods import METHODS, MethodSpec, classifier_factory
from repro.parallel.pool import (
    METHOD_COST_HINTS,
    ChunkRetryError,
    WarmPool,
    close_shared_pools,
    dispatch_chunk_size,
    shared_pool,
)
from repro.parallel.shm import (
    PageManifest,
    attach_pages,
    pages_alive,
    publish_arrays,
    publish_cached_dataset,
    publish_workload_pages,
    table_from_pages,
)
from repro.parallel.tasks import (
    ChunkCorruptionError,
    ChunkEnvelope,
    TrialResult,
    TrialTask,
    clear_workload_cache,
    execute_trials,
    open_chunk,
    run_single_trial,
    seal_chunk,
    trial_tasks,
)
from repro.workloads.queries import WorkloadSpec

__all__ = [
    "ChunkCorruptionError",
    "ChunkEnvelope",
    "ChunkRetryError",
    "METHODS",
    "METHOD_COST_HINTS",
    "MethodSpec",
    "PageManifest",
    "TrialResult",
    "TrialTask",
    "WarmPool",
    "WorkloadSpec",
    "attach_pages",
    "available_workers",
    "classifier_factory",
    "clear_workload_cache",
    "close_shared_pools",
    "default_start_method",
    "dispatch_chunk_size",
    "estimate_digest",
    "estimate_fingerprint",
    "estimates_fingerprint",
    "execute_trials",
    "open_chunk",
    "ordered_map",
    "pages_alive",
    "predict_scores_chunked",
    "seal_chunk",
    "publish_arrays",
    "publish_cached_dataset",
    "publish_workload_pages",
    "reset_oversubscription_warning",
    "resolve_worker_count",
    "run_single_trial",
    "shared_pool",
    "table_from_pages",
    "task_fingerprint",
    "trial_tasks",
]
