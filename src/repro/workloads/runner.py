"""Run repeated estimator trials over a workload.

Every figure in the paper's evaluation is a distribution of estimates over
repeated runs; :class:`TrialRunner` is the one trial loop (independent seeds
per trial, per-trial accounting scope, distribution summarisation), so the
per-figure drivers only declare *what* to run as a pickle-safe
:class:`~repro.parallel.methods.MethodSpec`.  Trial ``i`` runs the task
:func:`~repro.parallel.tasks.trial_tasks` gives it, in-process or — through
the ``workers=`` knob — on the process-wide warm pool
(:func:`~repro.parallel.pool.shared_pool`); results are byte-identical
either way.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

from repro import obs
from repro.core.estimate import CountEstimate
from repro.sampling.rng import SeedLike
from repro.workloads.metrics import EstimateDistribution, summarize_estimates
from repro.workloads.queries import Workload


@dataclass
class TrialRunner:
    """Run an estimator repeatedly over one workload.

    Attributes:
        workload: the workload to estimate.
        num_trials: number of independent repetitions.
        seed: master seed; each trial receives an independent child stream.
        workers: process count (``1``, the default, runs the trials
            in-process; ``None``/``0`` uses every usable CPU).  Fan-out needs
            a workload built from a :class:`~repro.workloads.queries.WorkloadSpec`;
            one without a spec warns and runs serially.
    """

    workload: Workload
    num_trials: int = 30
    seed: SeedLike = 0
    workers: int | None = 1
    estimates: dict[str, list[CountEstimate]] = field(default_factory=dict)

    def run(self, method_name: str, method_spec, budget: int) -> EstimateDistribution:
        """Run ``num_trials`` independent trials of one method.

        Args:
            method_name: label under which the results are stored.
            method_spec: a :class:`~repro.parallel.methods.MethodSpec` (or any
                spec with its ``method`` / ``build_trial_function()`` duck type).
            budget: predicate evaluations each trial may spend.

        Serial trials keep each :class:`CountEstimate` whole, ``details``
        included (the backend-parity audit digests ``details["design"]``).
        Warm-pool trials come back as diagnostics-free
        :class:`~repro.parallel.tasks.TrialResult` records; their
        fingerprints are identical to the serial run's.
        """
        from repro.parallel.engine import resolve_worker_count
        from repro.parallel.pool import shared_pool
        from repro.parallel.tasks import run_single_trial, trial_tasks

        tasks = trial_tasks(self.seed, self.num_trials, budget)
        workers = resolve_worker_count(self.workers)
        if workers > 1 and self.workload.spec is None:
            warnings.warn(
                "workload has no WorkloadSpec; running trials serially",
                stacklevel=2,
            )
            workers = 1
        if workers <= 1:
            collected = [run_single_trial(self.workload, method_spec, task) for task in tasks]
        else:
            # The trials' own spans stay in the workers; this one shows the run here.
            with obs.span(
                "parallel.warm", method=method_spec.method, tasks=len(tasks), workers=workers
            ):
                results = shared_pool(self.workload, workers).run(method_spec, tasks)
            collected = [result.to_estimate() for result in results]
        self.estimates[method_name] = collected
        return summarize_estimates(method_name, collected, self.workload.true_count)

    def distribution(self, method_name: str) -> EstimateDistribution:
        """Summarise the stored estimates of a previously run method."""
        if method_name not in self.estimates:
            raise KeyError(f"no trials recorded for {method_name!r}")
        return summarize_estimates(
            method_name, self.estimates[method_name], self.workload.true_count
        )
