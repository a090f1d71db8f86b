"""Learned Stratified Sampling (LSS).

Section 4.2 of the paper.  After the learning phase, the classifier scores
only *order* the unlabelled objects; a first-stage pilot sample is used to
jointly design the stratification (contiguous runs of the ordering) and the
allocation of the second-stage budget, and the final estimate is the standard
stratified estimator over all sampling-phase labels.  Because only the
ordering of the scores matters, LSS degrades gracefully with classifier
quality: a random classifier reduces it to ordinary stratified sampling,
never to a biased estimator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.estimate import CountEstimate
from repro.core.learning_phase import run_learning_phase
from repro.core.stratification import (
    InfeasibleDesignError,
    PilotSample,
    StratificationDesign,
    dirsol_design,
    dynpgm_design,
    dynpgm_proportional_design,
    fixed_height_design,
    fixed_width_design,
    logbdr_design,
    smoothed_bernoulli_std,
)
from repro.learning.base import Classifier
from repro.query.counting import CountingQuery
from repro.sampling.rng import SeedLike, resolve_rng, sample_without_replacement
from repro.sampling.srs import SimpleRandomSampling
from repro.sampling.stratified import StrataPartition, StratifiedSampling

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.scores import LearnedScores

#: Optimizers selectable through the ``optimizer`` constructor argument.
OPTIMIZERS = ("dynpgm", "dynpgm_prop", "logbdr", "dirsol", "fixed_width", "fixed_height")


class LearnedStratifiedSampling:
    """Two-phase learned stratified sampling estimator.

    Args:
        classifier: classifier whose score ordering drives stratification;
            the library default random forest when omitted.
        num_strata: number of strata ``H`` (the paper's experiments use 4).
        learning_fraction: fraction of the total budget labelled during the
            learning phase (25 % in the paper's experiments).
        pilot_fraction: fraction of the sampling-phase budget spent on the
            first-stage pilot sample.
        allocation: ``"neyman"`` or ``"proportional"`` second-stage
            allocation.
        optimizer: stratification optimizer — one of ``"dynpgm"`` (default),
            ``"dynpgm_prop"``, ``"logbdr"``, ``"dirsol"``, ``"fixed_width"``
            or ``"fixed_height"``.  LogBdr refuses to evaluate more than
            500,000 designs, which at H = 4 any pilot beyond a few dozen
            objects exceeds (on neighbors-S with 3,000 rows a pilot of 27
            gets a LogBdr design, one of 68 does not); the estimate then
            uses the fixed-height fallback, recorded as
            ``details["design_fallback"]``.
        min_pilot_per_stratum: minimum pilot objects per stratum (``m_⊔``,
            around 5 in the paper).
        min_stratum_size: minimum objects per stratum (``N_⊔``); a practical
            default is derived from the population when omitted.
        allocation_smoothing: when allocating the second-stage budget,
            Laplace-smooth the per-stratum deviation estimates so a stratum
            whose pilot labels happen to be pure is not starved of samples.
        confidence: coverage level of the reported interval.
        active_learning_rounds / active_learning_fraction: uncertainty
            sampling in the learning phase.
        optimizer_options: extra keyword arguments forwarded to the
            optimizer (e.g. ``max_candidates`` for DynPgm).
    """

    method_name = "lss"

    def __init__(
        self,
        classifier: Classifier | None = None,
        num_strata: int = 4,
        learning_fraction: float = 0.25,
        pilot_fraction: float = 0.3,
        allocation: str = "neyman",
        optimizer: str = "dynpgm",
        min_pilot_per_stratum: int = 5,
        min_stratum_size: int | None = None,
        allocation_smoothing: bool = True,
        confidence: float = 0.95,
        active_learning_rounds: int = 0,
        active_learning_fraction: float = 0.2,
        optimizer_options: dict | None = None,
    ) -> None:
        if not 0.0 < learning_fraction < 1.0:
            raise ValueError("learning_fraction must lie strictly between 0 and 1")
        if not 0.0 < pilot_fraction < 1.0:
            raise ValueError("pilot_fraction must lie strictly between 0 and 1")
        if num_strata <= 0:
            raise ValueError("num_strata must be positive")
        if allocation not in {"neyman", "proportional"}:
            raise ValueError(f"unknown allocation {allocation!r}")
        if optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {optimizer!r}; choose from {OPTIMIZERS}")
        if optimizer == "dirsol" and num_strata != 3:
            raise ValueError("DirSol only supports exactly 3 strata")
        self.classifier = classifier
        self.num_strata = num_strata
        self.learning_fraction = learning_fraction
        self.pilot_fraction = pilot_fraction
        self.allocation = allocation
        self.optimizer = optimizer
        self.min_pilot_per_stratum = min_pilot_per_stratum
        self.min_stratum_size = min_stratum_size
        self.allocation_smoothing = allocation_smoothing
        self.confidence = confidence
        self.active_learning_rounds = active_learning_rounds
        self.active_learning_fraction = active_learning_fraction
        self.optimizer_options = dict(optimizer_options or {})

    # -- internal helpers -----------------------------------------------------
    def _design(
        self,
        pilot: PilotSample,
        sorted_scores: np.ndarray,
        second_stage_samples: int,
    ) -> StratificationDesign:
        options = dict(self.optimizer_options)
        common = {
            "min_stratum_size": self.min_stratum_size,
            "min_pilot_per_stratum": self.min_pilot_per_stratum,
        }
        if self.optimizer == "dynpgm":
            return dynpgm_design(
                pilot, self.num_strata, second_stage_samples, **common, **options
            )
        if self.optimizer == "dynpgm_prop":
            return dynpgm_proportional_design(
                pilot, self.num_strata, second_stage_samples, **common, **options
            )
        if self.optimizer == "logbdr":
            return logbdr_design(
                pilot, self.num_strata, second_stage_samples, **common, **options
            )
        if self.optimizer == "dirsol":
            return dirsol_design(pilot, second_stage_samples, **common, **options)
        if self.optimizer == "fixed_width":
            return fixed_width_design(
                pilot, sorted_scores, self.num_strata, second_stage_samples, self.allocation
            )
        return fixed_height_design(
            pilot, self.num_strata, second_stage_samples, self.allocation
        )

    def _design_with_fallback(
        self,
        pilot: PilotSample,
        sorted_scores: np.ndarray,
        second_stage_samples: int,
    ) -> StratificationDesign:
        """Run the optimizer, falling back to fixed-height when infeasible.

        With very small pilot samples (tiny budgets) the optimizer's
        minimum-size constraints can be unsatisfiable; the estimator must
        still return an unbiased estimate, so it falls back to the
        constraint-free fixed-height layout in that case (recorded as
        ``details["design_fallback"]`` and, with obs enabled, on
        ``repro_estimator_fallbacks_total{kind="fixed_height"}``).  Only
        :class:`InfeasibleDesignError` is answered this way: any other error
        of the optimizer propagates.
        """
        try:
            return self._design(pilot, sorted_scores, second_stage_samples)
        except InfeasibleDesignError:
            if obs.enabled():
                obs.record_fallback(self.method_name, "fixed_height")
            return fixed_height_design(
                pilot, self.num_strata, second_stage_samples, self.allocation
            )

    def _pilot_only_estimate(
        self,
        query: CountingQuery,
        ordered_objects: np.ndarray,
        sampling_budget: int,
        rng: np.random.Generator,
        evaluations_before: int,
        learning_positives: float,
        learning_count: int,
    ) -> CountEstimate:
        """Deterministic fallback when the two-stage design is infeasible.

        At tiny budgets (relative to ``num_strata``) there is no way to pay
        for both a pilot and a per-stratum second stage, so the whole
        sampling budget becomes one simple random sample over the unlabelled
        remainder — an unbiased estimate with a valid interval, combined
        with the exactly-known learning-phase positives as usual.  The
        fallback is recorded as ``details["design_fallback"] = "pilot_only"``
        and, with obs enabled, counted as
        ``repro_estimator_fallbacks_total{kind="pilot_only"}``.
        """
        if obs.enabled():
            obs.record_fallback(self.method_name, "pilot_only")
        population = ordered_objects.size
        take = int(min(sampling_budget, population))
        with obs.stage("lss.pilot"):
            positions = sample_without_replacement(population, take, seed=rng)
            labels = query.evaluate(ordered_objects[positions])
            srs = SimpleRandomSampling(confidence=self.confidence).estimate_from_labels(
                labels, population
            )
        return CountEstimate(
            count=srs.count + learning_positives,
            proportion=srs.proportion,
            population_size=population,
            predicate_evaluations=query.evaluations - evaluations_before,
            method=self.method_name,
            interval=srs.interval,
            variance=srs.variance,
            count_offset=learning_positives,
            details={
                "degenerate": "pilot-only",
                "design_fallback": "pilot_only",
                "learning_count": learning_count,
                "learning_positives": learning_positives,
                "pilot_size": take,
                "num_strata": 1,
            },
        )

    # -- public API -----------------------------------------------------------
    def estimate(
        self,
        query: CountingQuery,
        budget: int,
        seed: SeedLike = None,
        backend: str | None = None,
    ) -> CountEstimate:
        """Estimate ``C(O, q)`` spending at most ``budget`` predicate calls.

        ``backend`` optionally reruns the query on another execution backend
        (see :mod:`repro.query.backends`); the estimate is byte-identical
        whichever backend executes — only where the predicate runs changes.
        """
        if budget < 8:
            raise ValueError("budget must be at least 8 predicate evaluations")
        if backend is not None:
            query = query.with_backend(backend)
        budget = min(budget, query.num_objects)
        rng = resolve_rng(seed)
        evaluations_before = query.evaluations

        learning_budget = max(int(round(self.learning_fraction * budget)), 2)
        learning_budget = min(learning_budget, budget - 4)
        with obs.stage("lss.learning"):
            learning = run_learning_phase(
                query,
                learning_budget,
                classifier=self.classifier,
                active_learning_rounds=self.active_learning_rounds,
                active_learning_fraction=self.active_learning_fraction,
                seed=rng,
            )

        remaining = learning.remaining_indices
        sampling_budget = budget - learning.labelled_count
        if remaining.size == 0 or sampling_budget <= 0:
            return CountEstimate(
                count=learning.positive_count,
                proportion=float(learning.labels.mean()),
                population_size=int(learning.labelled_count),
                predicate_evaluations=query.evaluations - evaluations_before,
                method=self.method_name,
                details={"degenerate": True},
            )
        sampling_budget = min(sampling_budget, remaining.size)

        # Order the remaining objects by classifier score.
        with obs.stage("lss.scoring"):
            scores = learning.classifier.predict_scores(query.features(remaining))
            order = np.argsort(scores, kind="stable")
            ordered_objects = remaining[order]
            sorted_scores = scores[order]

        return self._sampling_phase(
            query,
            ordered_objects,
            sorted_scores,
            sampling_budget,
            rng,
            evaluations_before=evaluations_before,
            learning_positives=learning.positive_count,
            learning_count=learning.labelled_count,
        )

    def estimate_from_scores(
        self,
        query: CountingQuery,
        learned: "LearnedScores",
        budget: int,
        seed: SeedLike = None,
    ) -> CountEstimate:
        """Estimate ``C(O, q)`` re-stratifying from an already-learned ordering.

        The learning phase — labelling, classifier training, scoring and the
        stable argsort — was paid once by
        :func:`~repro.core.scores.learn_scores`; this method spends the whole
        ``budget`` on the pilot + stage-II sampling phase over the cached
        ordering.  Because LSS consumes the scores only as an *ordering*, the
        estimate stays unbiased for any query over the same table — including
        sibling thresholds the classifier was never trained on; a mismatched
        ordering costs variance, never bias.  The learning set's exact labels
        under this query's threshold (transferred through the predicate's
        value decomposition, at zero oracle cost) enter as the usual additive
        ``count_offset``.
        """
        if budget < 2:
            raise ValueError("budget must be at least 2 predicate evaluations")
        rng = resolve_rng(seed)
        evaluations_before = query.evaluations

        labels = learned.labels_for(query)
        learning_positives = float(labels.sum())
        ordered_objects = learned.ordered_objects
        if ordered_objects.size == 0:
            return CountEstimate(
                count=learning_positives,
                proportion=float(labels.mean()) if labels.size else 0.0,
                population_size=int(labels.size),
                predicate_evaluations=query.evaluations - evaluations_before,
                method=self.method_name,
                details={"degenerate": True},
            )
        sampling_budget = min(int(budget), ordered_objects.size)
        return self._sampling_phase(
            query,
            ordered_objects,
            learned.sorted_scores,
            sampling_budget,
            rng,
            evaluations_before=evaluations_before,
            learning_positives=learning_positives,
            learning_count=int(labels.size),
        )

    def _sampling_phase(
        self,
        query: CountingQuery,
        ordered_objects: np.ndarray,
        sorted_scores: np.ndarray,
        sampling_budget: int,
        rng: np.random.Generator,
        evaluations_before: int,
        learning_positives: float,
        learning_count: int,
    ) -> CountEstimate:
        """Pilot + stage-II stratified estimation over a score-ordered population.

        Shared verbatim between :meth:`estimate` (which just learned the
        ordering) and :meth:`estimate_from_scores` (which replays a cached
        one) — the draw sequence on ``rng`` is identical in both, which is
        what makes served sweep estimates reproducible by any serial run
        holding the same cached ordering.
        """
        # Stage I: pilot sample over the ordered population.  The pilot must
        # keep enough budget in stage II to give every stratum at least one
        # fresh sample; when the sampling budget cannot support both a
        # two-object pilot and a full second stage, the two-stage design is
        # infeasible and the estimator degrades to pilot-only estimation
        # (a plain SRS over the ordered remainder) instead of silently
        # producing a non-positive second-stage budget.
        largest_pilot = min(sampling_budget - self.num_strata, ordered_objects.size)
        if largest_pilot < 2:
            return self._pilot_only_estimate(
                query,
                ordered_objects,
                sampling_budget,
                rng,
                evaluations_before,
                learning_positives,
                learning_count,
            )
        pilot_size = int(round(self.pilot_fraction * sampling_budget))
        pilot_size = max(
            pilot_size,
            min(self.num_strata * self.min_pilot_per_stratum, sampling_budget - 1),
        )
        pilot_size = int(np.clip(pilot_size, 2, largest_pilot))
        second_stage_samples = sampling_budget - pilot_size

        with obs.stage("lss.pilot"):
            pilot_positions = np.sort(
                sample_without_replacement(ordered_objects.size, pilot_size, seed=rng)
            )
            pilot_labels = query.evaluate(ordered_objects[pilot_positions])
            pilot = PilotSample(pilot_positions, pilot_labels, ordered_objects.size)

        # Sample design: stratification + allocation.
        with obs.stage("lss.design", optimizer=self.optimizer):
            design = self._design_with_fallback(
                pilot, sorted_scores, max(second_stage_samples, 1)
            )
            min_per_stratum = max(
                1, min(5, second_stage_samples // max(design.num_strata, 1))
            )
            stratified = StratifiedSampling(
                allocation=self.allocation,
                confidence=self.confidence,
                min_per_stratum=min_per_stratum,
            )
            partition = StrataPartition(
                [ordered_objects[start:end] for start, end in design.stratum_slices()]
            )
            if self.allocation_smoothing:
                pilot_positives = np.array(
                    [
                        float(
                            pilot_labels[
                                (pilot_positions >= start) & (pilot_positions < end)
                            ].sum()
                        )
                        for start, end in design.stratum_slices()
                    ]
                )
                allocation_stds = smoothed_bernoulli_std(pilot_positives, design.pilot_counts)
            else:
                allocation_stds = np.sqrt(design.stratum_variances)
            allocation = stratified.allocate(
                partition,
                second_stage_samples,
                stratum_stds=allocation_stds,
            )

        # Stage II: draw the allotted samples, excluding pilot objects.  Only
        # the fresh stage-II labels feed the final estimator: the pilot
        # labels already shaped the stratum boundaries, so reusing them
        # inside the strata they delimit would bias the estimate (most
        # visibly by making "all-negative" strata look exactly empty).
        stratum_labels: list[np.ndarray] = []
        slices = design.stratum_slices()
        with obs.stage("lss.stage2"):
            for (start, end), allotted in zip(slices, allocation.counts):
                in_stratum_mask = (pilot_positions >= start) & (pilot_positions < end)
                pilot_in_stratum = pilot_labels[in_stratum_mask]
                pilot_positions_in_stratum = pilot_positions[in_stratum_mask]
                available = np.setdiff1d(
                    np.arange(start, end), pilot_positions_in_stratum, assume_unique=True
                )
                take = int(min(allotted, available.size))
                if take > 0:
                    chosen_positions = sample_without_replacement(available, take, seed=rng)
                    stratum_labels.append(query.evaluate(ordered_objects[chosen_positions]))
                else:
                    # Degenerate budget: no fresh samples fit in this stratum, so
                    # fall back to its pilot labels rather than treating it as
                    # unobserved.
                    stratum_labels.append(pilot_in_stratum)

            estimate = stratified.estimate_from_samples(
                partition,
                stratum_labels,
                predicate_evaluations=query.evaluations - evaluations_before,
                method=self.method_name,
            )

        details = {
            "design": design,
            "allocation": allocation.counts,
            "learning_count": learning_count,
            "learning_positives": learning_positives,
            "pilot_size": pilot_size,
            "num_strata": design.num_strata,
        }
        if design.algorithm == "fixed-height" and self.optimizer != "fixed_height":
            details["design_fallback"] = "fixed_height"
        return CountEstimate(
            count=estimate.count + learning_positives,
            proportion=estimate.proportion,
            population_size=estimate.population_size,
            predicate_evaluations=query.evaluations - evaluations_before,
            method=self.method_name,
            interval=estimate.interval,
            variance=estimate.variance,
            count_offset=learning_positives,
            details=details,
        )
