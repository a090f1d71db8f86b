"""Figure 3: LSS overhead versus sample size.

The paper breaks LSS's extra work (relative to plain stratified sampling)
into three phases — P1 learning (classifier training), P1 sample design
(variance estimation + strata layout) and P2 overhead (classification,
ordering, sampling machinery) — and shows that together they are a tiny
fraction (≈0.2 %) of total runtime, which is dominated by expensive-predicate
evaluation.  This driver measures the same three phases with the real
(uncached) predicate.
"""

from __future__ import annotations

import numpy as np

from repro.core.lss import LearnedStratifiedSampling
from repro.experiments.common import build_scaled_workload
from repro.experiments.config import SMALL_SCALE, ExperimentScale
from repro.parallel.engine import ordered_map
from repro.query.counting import CountingQuery
from repro.query.predicates import CallablePredicate
from repro.sampling.rng import spawn_seeds
from repro.workloads.queries import Workload


def _with_expensive_predicate(workload: Workload, cost_seconds: float) -> Workload:
    """Wrap a workload's predicate with an artificial per-evaluation cost.

    The paper's datasets pair cheap attribute access with genuinely expensive
    user-defined predicates (its stated "primary time-bound"); the synthetic
    predicates here are index-accelerated and therefore too fast to show the
    overhead-vs-predicate breakdown.  Adding a fixed per-evaluation delay
    restores the paper's cost regime without changing any label.
    """
    if cost_seconds <= 0:
        return workload
    original = workload.query.predicate
    table = workload.query.table
    expensive = CallablePredicate(
        function=lambda tbl, index: bool(original.evaluate(tbl, np.array([index]))[0]),
        feature_columns=workload.query.feature_columns,
        bulk_function=original.evaluate_all,
        simulated_cost_seconds=cost_seconds,
    )
    query = CountingQuery(
        table,
        expensive,
        feature_columns=workload.query.feature_columns,
        name=workload.query.name + "-expensive",
        cache_labels=False,
    )
    return Workload(
        name=workload.name, level=workload.level, query=query, calibration=workload.calibration
    )


#: Per-process cache of wrapped workloads: the serial path shares one build
#: across all fraction points; each pool worker builds (at most) its own.
_WRAPPED_WORKLOADS: dict[tuple, Workload] = {}


def _wrapped_workload(
    dataset: str, level: str | float, scale: ExperimentScale, predicate_cost_seconds: float
) -> Workload:
    key = (dataset, level, scale, predicate_cost_seconds)
    workload = _WRAPPED_WORKLOADS.get(key)
    if workload is None:
        workload = build_scaled_workload(dataset, level, scale, cache_labels=False)
        workload = _with_expensive_predicate(workload, predicate_cost_seconds)
        _WRAPPED_WORKLOADS[key] = workload
    return workload


def _overhead_point(
    args: tuple[str, str | float, ExperimentScale, float, int, float],
) -> dict[str, object]:
    """Measure one (fraction) point of Figure 3.

    Module-level and spec-driven so the engine can ship it to a worker
    process: the wrapped expensive predicate closes over lambdas and cannot
    be pickled, so each worker rebuilds its own wrapped workload.  Timings
    are wall-clock measurements, not estimates, so parallel runs report the
    same structure but (legitimately) different seconds.
    """
    dataset, level, scale, fraction, trials_per_point, predicate_cost_seconds = args
    workload = _wrapped_workload(dataset, level, scale, predicate_cost_seconds)
    budget = workload.sample_size(fraction)
    learning = design = phase2 = predicate = total = 0.0
    for rng in spawn_seeds(scale.seed, trials_per_point):
        with workload.query.fresh_accounting():
            estimate = LearnedStratifiedSampling().estimate(workload.query, budget, seed=rng)
        timings = estimate.details["timings"]
        learning += timings.learning_seconds
        design += timings.design_seconds
        phase2 += timings.sampling_overhead_seconds
        predicate += timings.predicate_seconds
        total += timings.total_seconds
    scale_factor = 1.0 / trials_per_point
    overhead = (learning + design + phase2) * scale_factor
    total_mean = total * scale_factor
    return {
        "dataset": dataset,
        "level": level,
        "sample_size": budget,
        "p1_learning_s": round(learning * scale_factor, 4),
        "p1_design_s": round(design * scale_factor, 4),
        "p2_overhead_s": round(phase2 * scale_factor, 4),
        "predicate_s": round(predicate * scale_factor, 4),
        "total_s": round(total_mean, 4),
        "overhead_pct": round(100.0 * overhead / total_mean, 3) if total_mean else 0.0,
    }


def run_figure3_overhead(
    scale: ExperimentScale = SMALL_SCALE,
    dataset: str = "neighbors",
    level: str = "S",
    sample_fractions: tuple[float, ...] = (0.01, 0.02, 0.04),
    trials_per_point: int = 3,
    predicate_cost_seconds: float = 0.002,
    workers: int | None = None,
) -> list[dict[str, object]]:
    """Measure LSS phase overheads for growing sample sizes.

    With ``workers > 1`` the per-fraction points run in separate processes
    (one rebuilt workload each); timing rows keep their order.
    """
    workers = scale.workers if workers is None else workers
    tasks = [
        (dataset, level, scale, fraction, trials_per_point, predicate_cost_seconds)
        for fraction in sample_fractions
    ]
    return ordered_map(_overhead_point, tasks, workers)
