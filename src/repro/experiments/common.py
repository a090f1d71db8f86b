"""Helpers shared by the per-figure experiment drivers.

The drivers describe each estimator configuration as a pickle-safe
:class:`~repro.parallel.methods.MethodSpec` and hand it to
:func:`run_distribution`, which runs the trial loop through
:class:`~repro.workloads.runner.TrialRunner` — in-process, or on the warm
worker pool when ``workers > 1``.  Results are byte-identical for any
worker count.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentScale
from repro.parallel.methods import MethodSpec, classifier_factory
from repro.workloads.metrics import EstimateDistribution
from repro.workloads.queries import Workload, build_workload
from repro.workloads.runner import TrialRunner

__all__ = [
    "MethodSpec",
    "build_scaled_workload",
    "classifier_factory",
    "distribution_row",
    "run_distribution",
    "shared_session",
]

#: When set (the drivers' ``--session`` flag), workload construction routes
#: through this resident session, so consecutive drivers over the same table
#: recipe reuse one generated table, grid index and label cache.
_shared_session = None


def shared_session(enable: bool = True):
    """Enable (or tear down) cross-driver workload residency.

    Returns the active :class:`~repro.service.session.Session`, or ``None``
    after disabling.  Workloads resolved through the session are identical
    objects across drivers — and identical *bytes* to a fresh
    :func:`~repro.workloads.queries.build_workload`, by workload determinism —
    so enabling residency changes wall-clock, never results.
    """
    global _shared_session
    if not enable:
        if _shared_session is not None:
            _shared_session.close()
        _shared_session = None
        return None
    if _shared_session is None:
        # Lazy import: the service layer sits above the experiment helpers.
        from repro.service.session import Session

        _shared_session = Session()
    return _shared_session


def build_scaled_workload(
    dataset: str,
    level: str | float,
    scale: ExperimentScale,
    cache_labels: bool = True,
) -> Workload:
    """Build a workload at the scale's configured size, on the numpy backend.

    With an active :func:`shared_session`, the workload is served from (and
    kept in) the session's resident LRU instead of being rebuilt per driver.
    """
    num_rows = scale.sports_rows if dataset == "sports" else scale.neighbors_rows
    if _shared_session is not None:
        from repro.workloads.queries import WorkloadSpec

        spec = WorkloadSpec(
            dataset=dataset,
            level=level,
            num_rows=num_rows,
            cache_labels=cache_labels,
        )
        return _shared_session.workload_for(spec)
    return build_workload(dataset, level=level, num_rows=num_rows, cache_labels=cache_labels)


def run_distribution(
    workload: Workload,
    method_label: str,
    method_spec: MethodSpec,
    fraction: float,
    num_trials: int,
    seed: int,
    workers: int | None = 1,
) -> EstimateDistribution:
    """Run repeated trials of one configuration and summarise them.

    With ``workers > 1`` the trials are sharded across the warm worker pool
    (shared-memory dataset pages, persistent workers — see
    :mod:`repro.parallel.pool`); the estimates — and therefore the summary —
    are byte-identical to the serial run with the same seed.
    """
    runner = TrialRunner(workload=workload, num_trials=num_trials, seed=seed, workers=workers)
    return runner.run(method_label, method_spec, workload.sample_size(fraction))


def distribution_row(
    dataset: str,
    level: str | float,
    fraction: float,
    distribution: EstimateDistribution,
    **extra: object,
) -> dict[str, object]:
    """Flatten a distribution summary into one report row."""
    row: dict[str, object] = {
        "dataset": dataset,
        "level": level,
        "sample_pct": round(100.0 * fraction, 2),
    }
    row.update(extra)
    row.update(distribution.as_row())
    return row
