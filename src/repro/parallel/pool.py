"""A persistent warm worker pool that attaches to shared dataset pages.

This is the one trial engine behind every ``workers > 1`` run.  A pool that
is created per run and rebuilds the workload inside every worker from its
spec — dataset generation, calibration, grid index, backend, bulk label
scan — pays overhead that dwarfs the paper's cheap trials, which is how an
early benchmark recorded a 0.52x "speedup" at 4 workers.

:class:`WarmPool` inverts that lifecycle:

* the parent publishes the built workload's dataset columns and bulk label
  cache **once** into shared-memory pages (:mod:`repro.parallel.shm`);
* each worker runs a one-time initializer that maps those pages zero-copy
  and resolves the :class:`~repro.workloads.queries.WorkloadSpec` into a
  full workload — table, calibration, grid index, backend, label cache —
  then holds it for its lifetime;
* every subsequent dispatch streams only compact
  :class:`~repro.parallel.tasks.TrialTask` descriptors (a trial index, a
  seed descriptor, a budget) and receives compact result records back;
* chunk sizing is aware of per-trial cost, not just trial count: cheap
  methods ship few large chunks (dispatch overhead dominates), expensive
  methods ship many small ones (stragglers dominate).

Determinism is untouched: workers run each trial through the same
:func:`~repro.parallel.tasks.run_single_trial` as the serial
:class:`~repro.workloads.runner.TrialRunner`, trial ``i`` draws child
stream ``i``, and the equivalence suite holds the results byte-identical
across worker counts, chunkings and start methods.
"""
from __future__ import annotations

import atexit
import math
import multiprocessing
import os
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.parallel.engine import (
    available_workers,
    default_start_method,
    resolve_worker_count,
)
from repro.parallel.methods import MethodSpec
from repro.parallel.shm import (
    PageManifest,
    PublishedPages,
    attach_pages,
    pages_alive,
    publish_workload_pages,
    table_from_pages,
)
from repro.parallel.tasks import (
    ChunkCorruptionError,
    ChunkEnvelope,
    TrialResult,
    TrialTask,
    execute_trials,
    open_chunk,
    seal_chunk,
)
from repro.resilience.faults import ChunkFault, TransientFaultError, active_plan
from repro.workloads.queries import Workload, WorkloadSpec

#: Relative cost of one trial per method, in srs units.  These only steer
#: chunk sizing (never results): learned methods train a classifier and run
#: a stratification design per trial, simple samplers just draw and count.
METHOD_COST_HINTS: dict[str, float] = {
    "srs": 1.0,
    "ssp": 1.5,
    "ssn": 1.5,
    "qlcc": 4.0,
    "qlac": 4.0,
    "lws": 6.0,
    "lss": 8.0,
}


def method_cost_hint(method_spec: MethodSpec) -> float:
    """Relative per-trial cost of a method configuration."""
    cost = METHOD_COST_HINTS.get(method_spec.method, 2.0)
    if method_spec.active_learning_rounds:
        cost *= 1.0 + method_spec.active_learning_rounds
    return cost


def dispatch_chunk_size(num_tasks: int, workers: int, cost: float = 1.0) -> int:
    """Cost-aware chunk size for ``num_tasks`` trials over ``workers``.

    Cheap trials (cost ~1) go out as one chunk per worker: per-chunk
    dispatch and result pickling are the dominant expense, so amortise them.
    Expensive trials go out at 2-4 chunks per worker: a single straggling
    chunk of slow trials would idle the rest of the pool, so favour balance.
    """
    if num_tasks <= 0:
        return 1
    if workers <= 0:
        raise ValueError(f"workers must be positive, got {workers}")
    if cost >= 6.0:
        oversubscription = 4
    elif cost >= 2.0:
        oversubscription = 2
    else:
        oversubscription = 1
    target_chunks = max(workers * oversubscription, 1)
    return max(1, math.ceil(num_tasks / target_chunks))


# -- worker side --------------------------------------------------------------

#: Per-worker state installed by the pool initializer: the fully resolved
#: workload and the attached page handles (held so the views stay mapped).
_WORKER_STATE: dict[str, object] = {}


def _warm_worker_init(spec: WorkloadSpec, manifest: PageManifest) -> None:
    """One-time worker setup: map pages, resolve the workload, hold both.

    Runs once per worker process for the pool's whole lifetime, never per
    run.  The table comes from the shared pages zero-copy; calibration, grid
    index and backend are derived from it deterministically, and the label
    cache page (when published) replaces the bulk predicate scan outright.
    """
    attached = attach_pages(manifest)
    table, labels = table_from_pages(attached)
    _WORKER_STATE["workload"] = spec.build(table=table, label_cache=labels)
    _WORKER_STATE["attached"] = attached


@dataclass
class ObsChunkResult:
    """Chunk results plus the worker's observability payload.

    Shipped instead of the bare result list when the parent runs with
    observability enabled: the worker snapshots its (freshly reset) metrics
    registry so the parent can merge per-worker counters/histograms, and
    reports its own execution wall-clock so queue wait can be derived from
    the round-trip time.  Results themselves are byte-identical either way.
    """

    results: list
    metrics: dict
    exec_seconds: float
    worker_pid: int


def _warm_execute_chunk(
    method_spec: MethodSpec,
    tasks: tuple[TrialTask, ...],
    ship_obs: bool = False,
    fault: ChunkFault | None = None,
) -> ChunkEnvelope:
    """Worker entry point: run one chunk and ship it back in a sealed envelope.

    ``fault`` is the parent-armed injection command for *this dispatch only*
    (:meth:`repro.resilience.FaultPlan.arm_chunk`): the parent's fault
    counters advance at submit time, so a re-dispatched chunk never carries
    the fault that killed its first attempt — recovery cannot livelock.
    """
    if fault is not None:
        if fault.kind == "kill":
            # Simulate an OOM kill / crash: no exception, no cleanup — the
            # executor discovers a dead worker and reports BrokenProcessPool.
            os._exit(1)
        if fault.kind == "flake":
            raise TransientFaultError(f"injected chunk flake (pid {os.getpid()})")
        if fault.kind == "hang":
            # Hold the chunk past the parent's timeout; the rebuild path
            # terminates this worker, so the sleep is an upper bound.
            time.sleep(fault.seconds)
    workload = _WORKER_STATE.get("workload")
    if workload is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("warm worker has no resolved workload; initializer did not run")
    if not ship_obs:
        payload: object = execute_trials(workload, method_spec, tasks)
    else:
        # The parent has observability on; mirror it for this chunk so the
        # worker-side instrumentation (stage spans, oracle accounting) records
        # into the worker's registry, then ship the delta back with the results.
        was_enabled = obs.set_enabled(True)
        registry = obs.registry()
        registry.reset()
        started = time.perf_counter()
        try:
            results = execute_trials(workload, method_spec, tasks)
        finally:
            obs.set_enabled(was_enabled)
        payload = ObsChunkResult(
            results=results,
            metrics=registry.snapshot(),
            exec_seconds=time.perf_counter() - started,
            worker_pid=os.getpid(),
        )
    envelope = seal_chunk(payload)
    if fault is not None and fault.kind == "corrupt":
        # Flip one payload byte *after* sealing: the digest no longer
        # matches, so the parent's open_chunk must reject the envelope.
        data = bytearray(envelope.data)
        data[len(data) // 2] ^= 0xFF
        envelope = ChunkEnvelope(data=bytes(data), digest=envelope.digest)
    return envelope


def _ping(delay: float) -> int:
    time.sleep(delay)
    return os.getpid()


# -- parent side --------------------------------------------------------------


class ChunkRetryError(RuntimeError):
    """A chunk failed more attempts than the pool's retry budget allows.

    Raised by :meth:`WarmPool.run` after ``1 + max_chunk_retries`` attempts
    of the same chunk have been lost to worker deaths, timeouts, corruption
    or transient faults; the pool closes itself first so nothing leaks.
    """


class WarmPool:
    """A long-lived, self-healing process pool bound to one workload's pages.

    Args:
        workload: the built workload whose trials the pool will run; must
            carry a :class:`~repro.workloads.queries.WorkloadSpec` (workers
            re-derive everything except the shared table/labels from it).
        workers: worker process count (>= 1).
        start_method: multiprocessing start method; default ``fork`` where
            available, else ``spawn``.  Results are byte-identical either
            way — under ``spawn`` workers simply pay a one-time interpreter
            + import cost at pool start instead of inheriting the parent.
        chunk_size: fixed trials per dispatched chunk; cost-aware sizing
            (:func:`dispatch_chunk_size`) when omitted.
        chunk_timeout: seconds to wait for any one chunk before declaring
            its worker hung and rebuilding the pool; ``None`` (default)
            waits forever, matching the old behaviour.
        max_chunk_retries: how many times a lost/failed chunk may be
            re-dispatched before :class:`ChunkRetryError` (default 2, so
            three attempts total).  Re-dispatch is byte-safe: every trial
            draws only from its own seed descriptor, so a re-run chunk
            reproduces its results exactly.
    """

    def __init__(
        self,
        workload: Workload,
        workers: int,
        start_method: str | None = None,
        chunk_size: int | None = None,
        chunk_timeout: float | None = None,
        max_chunk_retries: int = 2,
    ) -> None:
        if workload.spec is None:
            raise ValueError(
                "workload has no WorkloadSpec; only workloads built by "
                "build_workload() can back a WarmPool"
            )
        self.workers = resolve_worker_count(workers)
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_timeout is not None and chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {chunk_timeout}")
        if max_chunk_retries < 0:
            raise ValueError(f"max_chunk_retries must be >= 0, got {max_chunk_retries}")
        self.spec = workload.spec
        self.chunk_size = chunk_size
        self.chunk_timeout = chunk_timeout
        self.max_chunk_retries = max_chunk_retries
        self.rebuilds = 0
        self.chunk_retries = 0
        self.start_method = start_method or default_start_method()
        self._pages: PublishedPages | None = publish_workload_pages(workload)
        self._executor: ProcessPoolExecutor | None = self._new_executor()
        _OPEN_POOLS[id(self)] = self

    def _new_executor(self) -> ProcessPoolExecutor:
        assert self._pages is not None
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_warm_worker_init,
            initargs=(self.spec, self._pages.manifest),
        )

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._executor is None

    def warm_up(self) -> "WarmPool":
        """Best-effort: spin up every worker (and its initializer) now.

        Submits one short ping per worker so pool start-up cost lands here
        rather than inside the first timed dispatch.  Returns ``self`` for
        chaining.
        """
        executor = self._require_executor()
        delay = 0.02 if self.workers > 1 else 0.0
        for future in [executor.submit(_ping, delay) for _ in range(self.workers)]:
            future.result()
        return self

    def close(self) -> None:
        """Shut workers down and unlink the shared pages (idempotent).

        Also evicts this pool from the process-wide :func:`shared_pool`
        registry: a closed pool left registered would hand the next caller
        a dead executor (the registry-leak bug this replaces).
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        pages, self._pages = self._pages, None
        if pages is not None:
            pages.close()
        _OPEN_POOLS.pop(id(self), None)
        for key, pool in list(_SHARED_POOLS.items()):
            if pool is self:
                _SHARED_POOLS.pop(key, None)

    def __enter__(self) -> "WarmPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _require_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            raise RuntimeError("WarmPool is closed")
        return self._executor

    def _rebuild(self) -> None:
        """Replace a broken/hung executor; the shared pages stay published.

        Terminates whatever worker processes remain (a hung worker never
        returns on its own), verifies the parent-owned segments are still
        attachable, then boots a fresh executor over the *same* manifest —
        new workers re-run the initializer and map the existing pages, so a
        rebuild costs pool start-up, never a table republish.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except Exception:  # pragma: no cover - already-dead worker
                    pass
            executor.shutdown(wait=False, cancel_futures=True)
        pages = self._pages
        if pages is None or not pages_alive(pages.manifest):
            raise RuntimeError("shared pages are gone; cannot rebuild the warm pool")
        self.rebuilds += 1
        if obs.enabled():
            obs.registry().inc(obs.POOL_REBUILDS)
        self._executor = self._new_executor()

    def _note_chunk_retry(self, reason: str) -> None:
        self.chunk_retries += 1
        if obs.enabled():
            obs.registry().inc(obs.CHUNK_RETRIES, reason=reason)

    # -- dispatch ------------------------------------------------------------
    def run(
        self,
        method_spec: MethodSpec,
        tasks: Sequence[TrialTask],
        chunk_size: int | None = None,
    ) -> list[TrialResult]:
        """Stream task chunks to the warm workers; gather results in task order.

        Failure handling is self-healing and byte-safe: a chunk lost to a
        dead worker (``BrokenProcessPool``), a hung worker (``chunk_timeout``
        exceeded), a corrupted result envelope or an injected transient
        fault is re-dispatched up to ``max_chunk_retries`` times — with a
        pool rebuild first when the executor itself is gone.  Because each
        trial draws only from its own seed descriptor, the recovered run's
        results are hex-identical to a failure-free run (the chaos grid in
        ``tests/test_resilience.py`` pins this).
        """
        tasks = tuple(tasks)
        if not tasks:
            return []
        size = chunk_size or self.chunk_size
        if size is None:
            size = dispatch_chunk_size(len(tasks), self.workers, method_cost_hint(method_spec))
        elif size <= 0:
            raise ValueError(f"chunk_size must be positive, got {size}")
        self._require_executor()
        chunks = [tasks[start : start + size] for start in range(0, len(tasks), size)]
        ship_obs = obs.enabled()
        plan = active_plan()
        completed_at: dict = {}

        def _mark_done(done_future) -> None:
            completed_at[done_future] = time.perf_counter()

        payloads: dict[int, object] = {}
        attempts = [0] * len(chunks)
        pending = list(range(len(chunks)))
        try:
            while pending:
                executor = self._require_executor()
                if self.chunk_timeout is not None:
                    # Worker boot is not chunk work: under spawn (or after a
                    # rebuild) process start-up can dwarf the chunk timeout,
                    # and charging it to the first dispatches would burn the
                    # retry budget on perfectly healthy workers.  One ping
                    # per worker rides the same queue as real chunks, so
                    # when they return the pool is genuinely up.
                    for ping in [executor.submit(_ping, 0.0) for _ in range(self.workers)]:
                        ping.result()
                futures: dict[int, object] = {}
                submitted_at: dict = {}
                for index in pending:
                    fault = plan.arm_chunk() if plan is not None else None
                    attempts[index] += 1
                    future = executor.submit(
                        _warm_execute_chunk, method_spec, chunks[index], ship_obs, fault
                    )
                    if ship_obs:
                        submitted_at[future] = time.perf_counter()
                        future.add_done_callback(_mark_done)
                    futures[index] = future

                rebuild = False
                still_pending: list[int] = []
                for index in pending:
                    future = futures[index]
                    if rebuild:
                        # The executor is already condemned; only harvest
                        # chunks that finished cleanly before it broke.
                        if not (future.done() and future.exception() is None):
                            still_pending.append(index)
                            continue
                    try:
                        envelope = future.result(timeout=None if rebuild else self.chunk_timeout)
                        payload = open_chunk(envelope)
                    except (ChunkCorruptionError, TransientFaultError) as exc:
                        self._note_chunk_retry(type(exc).__name__)
                        still_pending.append(index)
                        continue
                    except BrokenProcessPool:
                        self._note_chunk_retry("BrokenProcessPool")
                        rebuild = True
                        still_pending.append(index)
                        continue
                    except (FuturesTimeout, TimeoutError):
                        # A hung worker: nothing short of killing the
                        # process unblocks it, so condemn the executor.
                        self._note_chunk_retry("ChunkTimeout")
                        rebuild = True
                        still_pending.append(index)
                        continue
                    payloads[index] = payload
                    if ship_obs:
                        self._record_chunk_metrics(
                            payload,
                            len(chunks[index]),
                            completed_at.get(future, time.perf_counter())
                            - submitted_at[future],
                        )

                exhausted = [
                    index
                    for index in still_pending
                    if attempts[index] > self.max_chunk_retries
                ]
                if exhausted:
                    raise ChunkRetryError(
                        f"chunk {exhausted[0]} failed {attempts[exhausted[0]]} attempts "
                        f"(retry budget {self.max_chunk_retries}); giving up"
                    )
                if rebuild:
                    self._rebuild()
                pending = still_pending
        except Exception:
            # Fail closed on anything unrecoverable (retry budget exhausted,
            # pages gone, non-retryable worker error): release workers and
            # segments now rather than at atexit.
            self.close()
            raise
        results: list = []
        for index in range(len(chunks)):
            payload = payloads[index]
            results.extend(payload.results if ship_obs else payload)
        return results

    def _record_chunk_metrics(
        self, payload: ObsChunkResult, chunk_trials: int, round_trip_seconds: float
    ) -> None:
        """Fold a worker's shipped registry in and derive dispatch metrics.

        Queue wait approximates time the chunk spent outside `execute_trials`
        — pickling, the executor's call queue, result transfer — as the
        round trip minus the worker-reported execution time.
        """
        registry = obs.registry()
        registry.merge(payload.metrics)
        registry.inc(obs.POOL_CHUNKS, worker_pid=payload.worker_pid)
        registry.observe(
            obs.POOL_CHUNK_TRIALS,
            float(chunk_trials),
            buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        registry.observe(obs.POOL_DISPATCH_SECONDS, round_trip_seconds)
        registry.observe(
            obs.POOL_QUEUE_WAIT_SECONDS,
            max(0.0, round_trip_seconds - payload.exec_seconds),
        )

    def diagnostics(self) -> dict[str, object]:
        """Pool configuration and hardware context, for benchmark documents."""
        pages = self._pages
        return {
            "workers": self.workers,
            "usable_cores": available_workers(),
            "oversubscribed": self.workers > available_workers(),
            "start_method": self.start_method,
            "chunk_size": self.chunk_size,
            "shared_pages": len(pages.manifest.pages) if pages is not None else 0,
            "shared_bytes": pages.manifest.total_bytes if pages is not None else 0,
        }


# -- process-wide pool reuse --------------------------------------------------

#: Pools created by this process that are still open; the atexit sweep
#: closes them so crashed or careless callers cannot leak /dev/shm segments.
_OPEN_POOLS: dict[int, WarmPool] = {}

#: Shared pools by (spec, workers, start_method), so consecutive runners in
#: one experiment sweep — one per method per figure cell — reuse warm
#: workers instead of paying pool start-up per method.  Bounded: figure
#: drivers alternate between at most a couple of workloads at a time.
_SHARED_POOLS: "OrderedDict[tuple[WorkloadSpec, int, str], WarmPool]" = OrderedDict()
_SHARED_POOL_LIMIT = 2


def shared_pool(workload: Workload, workers: int, start_method: str | None = None) -> WarmPool:
    """A process-wide :class:`WarmPool` for ``(workload.spec, workers)``.

    The pool stays warm across :class:`~repro.workloads.runner.TrialRunner`
    instances — the whole point: a figure driver sweeping four methods over
    one workload creates four runners but pays for one pool and one set of
    shared pages.  Do **not** close the returned pool; call
    :func:`close_shared_pools` (or exit) instead.
    """
    if workload.spec is None:
        raise ValueError("workload has no WorkloadSpec; cannot key a shared pool")
    method = start_method or default_start_method()
    key = (workload.spec, resolve_worker_count(workers, warn=False), method)
    pool = _SHARED_POOLS.get(key)
    if pool is not None and not pool.closed:
        _SHARED_POOLS.move_to_end(key)
        return pool
    pool = WarmPool(workload, workers=workers, start_method=method)
    _SHARED_POOLS[key] = pool
    while len(_SHARED_POOLS) > _SHARED_POOL_LIMIT:
        _, evicted = _SHARED_POOLS.popitem(last=False)
        evicted.close()
    return pool


def close_shared_pools() -> None:
    """Close every shared pool (tests, and before interpreter exit)."""
    while _SHARED_POOLS:
        _, pool = _SHARED_POOLS.popitem(last=False)
        pool.close()


def _close_open_pools() -> None:  # pragma: no cover - exercised at exit
    close_shared_pools()
    for pool in list(_OPEN_POOLS.values()):
        pool.close()


atexit.register(_close_open_pools)
