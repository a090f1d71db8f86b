"""Deterministic parallel counterpart of :class:`~repro.workloads.runner.TrialRunner`.

Trials are sharded across the workers of a persistent
:class:`~repro.parallel.pool.WarmPool` in contiguous chunks; every trial
``i`` draws from the same child stream ``spawn_seeds(seed, n)[i]`` it would
receive serially, workers hold an identical workload resolved once from
shared-memory dataset pages, and per-trial accounting is scoped to the task
— so the resulting estimates are **byte-identical** to a serial run with the
same master seed, for any worker count and any chunking.  Pools are shared
process-wide per ``(spec, workers, start_method)``, so a multi-method sweep
pays pool start-up once.

The reduce step ships only compact :class:`~repro.parallel.tasks.TrialResult`
records — or, for verification-only callers
(:meth:`ParallelTrialRunner.run_fingerprints`), 32-byte digests — back to
the parent, which reassembles them in trial order.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.core.estimate import CountEstimate
from repro.parallel.engine import resolve_worker_count
from repro.parallel.methods import MethodSpec
from repro.parallel.fingerprint import fingerprints_digest
from repro.parallel.pool import WarmPool, shared_pool
from repro.parallel.tasks import TrialTask, execute_trials
from repro.sampling.rng import SeedLike, spawn_seed_descriptors
from repro.workloads.metrics import EstimateDistribution, summarize_estimates
from repro.workloads.queries import Workload, WorkloadSpec


@dataclass
class ParallelTrialRunner:
    """Run an estimator's trials across worker processes, deterministically.

    Attributes:
        workload_spec: recipe for the workload; workers rebuild from it.
        num_trials: number of independent repetitions.
        seed: master seed; trial ``i`` gets child stream ``i`` exactly as in
            the serial runner.
        workers: process count (``1`` = in-process serial execution;
            ``None``/``0`` = all usable CPUs, affinity-aware).
        chunk_size: trials per dispatched chunk; cost-aware sizing when
            omitted.
        workload: optionally, an already-built workload matching the spec.
            Its dataset pages and bulk label cache are shared with the
            workers through shared memory, so the expensive predicate scan
            runs once per experiment instead of once per worker.
        start_method: multiprocessing start method for the pool
            (``None`` = ``fork`` where available, else ``spawn``).
        pool: an externally managed :class:`~repro.parallel.pool.WarmPool`
            to dispatch on, instead of the process-wide shared pool.  The
            caller keeps ownership (and the close responsibility).
    """

    workload_spec: WorkloadSpec
    num_trials: int = 30
    seed: SeedLike = 0
    workers: int | None = 1
    chunk_size: int | None = None
    workload: Workload | None = None
    start_method: str | None = None
    pool: WarmPool | None = None
    estimates: dict[str, list[CountEstimate]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workload is not None and self.workload.spec not in (None, self.workload_spec):
            raise ValueError("prebuilt workload does not match workload_spec")

    def _materialised_workload(self) -> Workload:
        if self.workload is None:
            self.workload = self.workload_spec.build()
        return self.workload

    def _tasks(self, budget: int) -> list[TrialTask]:
        if self.num_trials <= 0:
            raise ValueError("num_trials must be positive")
        seeds = spawn_seed_descriptors(self.seed, self.num_trials)
        return [
            TrialTask(trial_index=index, seed=descriptor, budget=budget)
            for index, descriptor in enumerate(seeds)
        ]

    def _execute(self, method_spec: MethodSpec, budget: int, result_mode: str) -> list:
        workers = resolve_worker_count(self.workers)
        workload = self._materialised_workload()
        tasks = self._tasks(budget)
        if workers <= 1:
            with obs.span(
                "parallel.serial", method=method_spec.method, tasks=len(tasks)
            ):
                return execute_trials(
                    workload, method_spec, tuple(tasks), result_mode=result_mode
                )
        pool = self.pool
        if pool is None:
            pool = shared_pool(workload, workers, self.start_method)
        with obs.span(
            "parallel.warm",
            method=method_spec.method,
            tasks=len(tasks),
            workers=workers,
        ):
            results = pool.run(
                method_spec, tasks, result_mode=result_mode, chunk_size=self.chunk_size
            )
        return sorted(results, key=lambda result: result.trial_index)

    def run(self, method_name: str, method_spec: MethodSpec, budget: int) -> EstimateDistribution:
        """Run ``num_trials`` independent trials of one estimator.

        Args:
            method_name: label under which the results are stored.
            method_spec: pickle-safe description of the estimator to run.
            budget: predicate evaluations each trial may spend.
        """
        ordered = self._execute(method_spec, budget, result_mode="estimates")
        collected = [result.to_estimate() for result in ordered]
        self.estimates[method_name] = collected
        return summarize_estimates(
            method_name, collected, self._materialised_workload().true_count
        )

    def run_fingerprints(self, method_spec: MethodSpec, budget: int) -> str:
        """Run the trials but return only the combined estimate fingerprint.

        The verification fast path: workers buffer each trial down to its
        32-byte digest, so fingerprint bytes — not whole result objects —
        cross the pipe.  The returned hex digest equals
        ``estimates_fingerprint(...)`` of the estimates a :meth:`run` with
        the same configuration would have produced; nothing is stored on
        :attr:`estimates`.
        """
        ordered = self._execute(method_spec, budget, result_mode="fingerprints")
        return fingerprints_digest(result.digest for result in ordered)

    def distribution(self, method_name: str) -> EstimateDistribution:
        """Summarise the stored estimates of a previously run method."""
        if method_name not in self.estimates:
            raise KeyError(f"no trials recorded for {method_name!r}")
        return summarize_estimates(
            method_name, self.estimates[method_name], self._materialised_workload().true_count
        )


def run_trials_parallel(
    workload: Workload,
    method_name: str,
    method_spec: MethodSpec,
    budget: int,
    num_trials: int = 30,
    seed: SeedLike = 0,
    workers: int | None = 1,
    chunk_size: int | None = None,
    start_method: str | None = None,
) -> EstimateDistribution:
    """Convenience wrapper: parallel trials over an already-built workload."""
    if workload.spec is None:
        raise ValueError(
            "workload has no spec; only workloads built by build_workload() "
            "can be executed in parallel"
        )
    runner = ParallelTrialRunner(
        workload_spec=workload.spec,
        num_trials=num_trials,
        seed=seed,
        workers=workers,
        chunk_size=chunk_size,
        workload=workload,
        start_method=start_method,
    )
    return runner.run(method_name, method_spec, budget)
