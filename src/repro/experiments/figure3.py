"""Figure 3: LSS overhead versus sample size.

The paper breaks LSS's extra work (relative to plain stratified sampling)
into three phases — P1 learning (classifier training), P1 sample design
(variance estimation + strata layout) and P2 overhead (classification,
ordering, sampling machinery) — and shows that together they are a tiny
fraction (≈0.2 %) of total runtime, which is dominated by expensive-predicate
evaluation.  This driver measures the same three phases with the real
(uncached) predicate.

Every column comes from :mod:`repro.obs`: the estimator's stage spans and
the predicate seconds recorded per stage (``repro_oracle_seconds_total``).
Each row is the mean over the point's trials of:

* ``p1_learning_s`` — the ``lss.learning`` span minus its predicate seconds
  (learning-set draw, features, classifier training).
* ``p1_design_s`` — the ``lss.design`` span (stratification, allocation).
* ``p2_overhead_s`` — the ``lss.scoring``, ``lss.pilot`` and ``lss.stage2``
  spans minus their predicate seconds (scoring and ordering, the pilot and
  stage-II draws, the stratified estimate).
* ``predicate_s`` — all predicate seconds.
* ``total_s`` — the trial's root span, around the whole estimate.
* ``overhead_pct`` — the three overhead columns as a share of ``total_s``.

The four phase columns are disjoint parts of the root span, so they sum to at
most ``total_s``.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.lss import LearnedStratifiedSampling
from repro.experiments.common import build_scaled_workload
from repro.experiments.config import SMALL_SCALE, ExperimentScale
from repro.parallel.engine import ordered_map
from repro.query.counting import CountingQuery
from repro.query.predicates import CallablePredicate
from repro.sampling.rng import spawn_seeds
from repro.workloads.queries import Workload

#: Stage spans whose predicate-free time is phase-2 overhead.
_PHASE2_STAGES = ("lss.scoring", "lss.pilot", "lss.stage2")


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


def _oracle_seconds() -> dict[str, float]:
    """Oracle seconds recorded so far, per stage label."""
    return {
        dict(labels)["stage"]: value
        for (name, labels), value in obs.registry().iter_counters()
        if name == obs.ORACLE_SECONDS
    }


def _overhead_point(
    args: tuple[str, str | float, ExperimentScale, float, int, float],
) -> dict[str, object]:
    """Measure one (fraction) point of Figure 3.

    Module-level and spec-driven so the engine can ship it to a worker
    process: the wrapped expensive predicate closes over lambdas and cannot
    be pickled, so each worker rebuilds its own wrapped workload.  Timings
    are wall-clock measurements, not estimates, so parallel runs report the
    same structure but (legitimately) different seconds.  Observability is
    switched on for the trials only; its previous state is restored after.
    """
    dataset, level, scale, fraction, trials_per_point, predicate_cost_seconds = args
    workload = _wrapped_workload(dataset, level, scale, predicate_cost_seconds)
    budget = workload.sample_size(fraction)
    sums = dict.fromkeys(("learning", "design", "phase2", "predicate", "total"), 0.0)
    was_enabled = obs.set_enabled(True)
    try:
        for rng in spawn_seeds(scale.seed, trials_per_point):
            before = _oracle_seconds()
            with workload.query.fresh_accounting(), obs.span("figure3.trial") as root:
                LearnedStratifiedSampling().estimate(workload.query, budget, seed=rng)
            oracle = {
                stage: seconds - before.get(stage, 0.0)
                for stage, seconds in _oracle_seconds().items()
            }
            stages = {child.name: child.duration_seconds for child in root.children}
            # Learning labels under learning.* spans or lss.learning itself;
            # every other predicate batch runs in a phase-2 stage.
            learning_oracle = sum(
                seconds for stage, seconds in oracle.items() if "learning" in stage
            )
            predicate = sum(oracle.values())
            sums["learning"] += stages.get("lss.learning", 0.0) - learning_oracle
            sums["design"] += stages.get("lss.design", 0.0)
            sums["phase2"] += sum(stages.get(stage, 0.0) for stage in _PHASE2_STAGES) - (
                predicate - learning_oracle
            )
            sums["predicate"] += predicate
            sums["total"] += root.duration_seconds
    finally:
        obs.set_enabled(was_enabled)
    mean = {phase: seconds / trials_per_point for phase, seconds in sums.items()}
    overhead = mean["learning"] + mean["design"] + mean["phase2"]
    return {
        "dataset": dataset,
        "level": level,
        "sample_size": budget,
        "p1_learning_s": round(mean["learning"], 4),
        "p1_design_s": round(mean["design"], 4),
        "p2_overhead_s": round(mean["phase2"], 4),
        "predicate_s": round(mean["predicate"], 4),
        "total_s": round(mean["total"], 4),
        "overhead_pct": round(100.0 * overhead / mean["total"], 3) if mean["total"] else 0.0,
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
