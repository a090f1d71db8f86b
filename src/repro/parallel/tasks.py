"""Trial task descriptors and the worker-side execution functions.

A trial is described by plain data — which estimator configuration to run
(:class:`~repro.parallel.methods.MethodSpec`), the budget, and a
:class:`~repro.sampling.rng.SeedDescriptor` naming the trial's child
stream; :func:`trial_tasks` builds the tasks of one seeded run.  The
serial :class:`~repro.workloads.runner.TrialRunner` executes them one at a
time through :func:`run_single_trial`; warm-pool workers execute chunks of
them through :func:`execute_trials` and return compact :class:`TrialResult`
records for the reduce step.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.core.estimate import CountEstimate
from repro.parallel.methods import MethodSpec
from repro.sampling.intervals import ConfidenceInterval
from repro.sampling.rng import SeedDescriptor, SeedLike, spawn_seed_descriptors
from repro.workloads.queries import Workload


def clear_workload_cache() -> None:
    """No-op (nothing caches workloads any more); ``perfbench/run.py`` teardown imports it."""


@dataclass(frozen=True)
class TrialTask:
    """One trial of one estimator configuration, as shippable data."""

    trial_index: int
    seed: SeedDescriptor
    budget: int


def trial_tasks(seed: SeedLike, num_trials: int, budget: int) -> tuple[TrialTask, ...]:
    """The tasks of ``num_trials`` seeded trials: trial ``i`` draws child stream ``i``."""
    if num_trials < 1:
        raise ValueError("num_trials must be positive")
    return tuple(
        TrialTask(trial_index=index, seed=descriptor, budget=budget)
        for index, descriptor in enumerate(spawn_seed_descriptors(seed, num_trials))
    )


@dataclass(frozen=True)
class TrialResult:
    """The deterministic content of one trial's :class:`CountEstimate`.

    Heavyweight diagnostics (stratum designs, allocations, sampled index
    arrays) stay in the worker; only the fields that define the
    estimate — and therefore its fingerprint — cross the process boundary.
    """

    trial_index: int
    count: float
    proportion: float
    population_size: int
    predicate_evaluations: int
    method: str
    interval_low: float | None
    interval_high: float | None
    interval_confidence: float | None
    interval_method: str | None
    variance: float | None
    count_offset: float

    @classmethod
    def from_estimate(cls, trial_index: int, estimate: CountEstimate) -> "TrialResult":
        interval = estimate.interval
        return cls(
            trial_index=trial_index,
            count=estimate.count,
            proportion=estimate.proportion,
            population_size=estimate.population_size,
            predicate_evaluations=estimate.predicate_evaluations,
            method=estimate.method,
            interval_low=interval.low if interval is not None else None,
            interval_high=interval.high if interval is not None else None,
            interval_confidence=interval.confidence if interval is not None else None,
            interval_method=interval.method if interval is not None else None,
            variance=estimate.variance,
            count_offset=estimate.count_offset,
        )

    def to_estimate(self) -> CountEstimate:
        """Rebuild a (diagnostics-free) :class:`CountEstimate`."""
        interval = None
        if self.interval_low is not None:
            interval = ConfidenceInterval(
                low=self.interval_low,
                high=self.interval_high,
                confidence=self.interval_confidence,
                method=self.interval_method,
            )
        return CountEstimate(
            count=self.count,
            proportion=self.proportion,
            population_size=self.population_size,
            predicate_evaluations=self.predicate_evaluations,
            method=self.method,
            interval=interval,
            variance=self.variance,
            count_offset=self.count_offset,
        )


class ChunkCorruptionError(RuntimeError):
    """A chunk result envelope failed its integrity check.

    Raised by :func:`open_chunk` when the payload's digest does not match —
    whether from an injected ``corrupt`` fault or a real transport bug.  The
    pool treats it as retryable: the chunk is re-executed, never patched.
    """


@dataclass(frozen=True)
class ChunkEnvelope:
    """A chunk result payload sealed with its own content digest.

    Workers pickle their chunk's results and stamp the bytes with SHA-256
    before shipping; the parent verifies on open.  The envelope turns silent
    result corruption (a bit flip in transit, a buggy serializer) into a
    loud, *retryable* failure — the same recovery path as a killed worker.
    """

    data: bytes
    digest: bytes


def seal_chunk(payload: Any) -> ChunkEnvelope:
    """Pickle ``payload`` and seal it with its SHA-256 digest."""
    data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return ChunkEnvelope(data=data, digest=hashlib.sha256(data).digest())


def open_chunk(envelope: ChunkEnvelope) -> Any:
    """Verify an envelope's digest, then unpickle its payload."""
    if hashlib.sha256(envelope.data).digest() != envelope.digest:
        raise ChunkCorruptionError(
            f"chunk envelope digest mismatch over {len(envelope.data)} bytes"
        )
    return pickle.loads(envelope.data)


def run_single_trial(
    workload: Workload,
    method_spec: MethodSpec,
    task: TrialTask,
) -> CountEstimate:
    """Execute one trial inside a fresh accounting scope.

    The accounting reset lives here — with the task, not with the runner —
    so concurrent trials on per-worker workload copies never race on shared
    counters and serial runners stop mutating state another method's trials
    may observe.
    """
    if not obs.enabled():
        with workload.query.fresh_accounting():
            return method_spec.build_trial_function()(workload, task.seed.resolve(), task.budget)
    # Instrumented path: a root span per trial plus the per-method duration
    # histogram.  Timing only — the trial body is identical to the fast path.
    started = time.perf_counter()
    with obs.span("trial", method=method_spec.method, trial=task.trial_index):
        with workload.query.fresh_accounting():
            estimate = method_spec.build_trial_function()(
                workload, task.seed.resolve(), task.budget
            )
    registry = obs.registry()
    registry.inc(obs.TRIALS_TOTAL, method=method_spec.method)
    registry.observe(
        obs.TRIAL_SECONDS, time.perf_counter() - started, method=method_spec.method
    )
    return estimate


def execute_trials(
    workload: Workload,
    method_spec: MethodSpec,
    tasks: tuple[TrialTask, ...],
) -> list[TrialResult]:
    """Run a chunk of trials against an already-resolved workload.

    The warm-pool workers' execution path.  Trials within the chunk run in
    task order through :func:`run_single_trial`, the serial runner's path
    too; each draws only from its own child stream, so chunking never
    affects results.
    """
    return [
        TrialResult.from_estimate(task.trial_index, run_single_trial(workload, method_spec, task))
        for task in tasks
    ]
