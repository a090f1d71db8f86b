"""Learned Weighted Sampling (LWS).

Section 4.1 of the paper: after the learning phase, the classifier score
``g(o)`` is used as a size measure for probability-proportional-to-size
sampling without replacement over the unlabelled objects, guarded by a floor
``ε`` so no object becomes unsampleable.  The Des Raj ordered estimator turns
the draws into an unbiased estimate with a variance estimate — confident,
accurate classifiers make the estimate converge almost immediately, while a
poor classifier only costs extra variance, never bias.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.estimate import CountEstimate
from repro.core.learning_phase import run_learning_phase
from repro.learning.base import Classifier
from repro.obs import trace as obs
from repro.query.counting import CountingQuery
from repro.sampling.rng import SeedLike, resolve_rng
from repro.sampling.weighted import WeightedSampling

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.scores import LearnedScores


class LearnedWeightedSampling:
    """Two-phase learned weighted sampling estimator.

    Args:
        classifier: classifier whose scores drive the sampling design; the
            library default random forest when omitted.
        learning_fraction: fraction of the total budget labelled during the
            learning phase (the paper's experiments use 25 %).
        score_floor: the ε floor applied to scores before normalising them
            into sampling probabilities.
        confidence: coverage level of the reported interval.
        active_learning_rounds: uncertainty-sampling augmentation rounds in
            the learning phase.
        active_learning_fraction: fraction of the learning budget reserved
            for augmentation.
    """

    method_name = "lws"

    def __init__(
        self,
        classifier: Classifier | None = None,
        learning_fraction: float = 0.25,
        score_floor: float = 0.01,
        confidence: float = 0.95,
        active_learning_rounds: int = 0,
        active_learning_fraction: float = 0.2,
    ) -> None:
        if not 0.0 < learning_fraction < 1.0:
            raise ValueError("learning_fraction must lie strictly between 0 and 1")
        self.classifier = classifier
        self.learning_fraction = learning_fraction
        self.score_floor = score_floor
        self.confidence = confidence
        self.active_learning_rounds = active_learning_rounds
        self.active_learning_fraction = active_learning_fraction

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
        if budget < 4:
            raise ValueError("budget must be at least 4 predicate evaluations")
        if backend is not None:
            query = query.with_backend(backend)
        budget = min(budget, query.num_objects)
        rng = resolve_rng(seed)
        evaluations_before = query.evaluations

        learning_budget = max(int(round(self.learning_fraction * budget)), 2)
        learning_budget = min(learning_budget, budget - 2)
        with obs.stage("lws.learning"):
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
            # Degenerate: the learning phase already labelled everything.
            return CountEstimate(
                count=learning.positive_count,
                proportion=float(learning.labels.mean()),
                population_size=int(learning.labelled_count),
                predicate_evaluations=query.evaluations - evaluations_before,
                method=self.method_name,
                count_offset=0.0,
                details={"degenerate": True},
            )

        with obs.stage("lws.scoring"):
            scores = learning.classifier.predict_scores(query.features(remaining))

        sampler = WeightedSampling(floor=self.score_floor, confidence=self.confidence)
        with obs.stage("lws.sampling"):
            estimate = sampler.estimate(
                remaining,
                scores,
                query.evaluate,
                sample_size=min(sampling_budget, remaining.size),
                seed=rng,
                method=self.method_name,
            )

        details = dict(
            estimate.details,
            learning_count=learning.labelled_count,
            learning_positives=learning.positive_count,
        )
        return CountEstimate(
            count=estimate.count + learning.positive_count,
            proportion=estimate.proportion,
            population_size=estimate.population_size,
            predicate_evaluations=query.evaluations - evaluations_before,
            method=self.method_name,
            interval=estimate.interval,
            variance=estimate.variance,
            count_offset=learning.positive_count,
            details=details,
        )

    def estimate_from_scores(
        self,
        query: CountingQuery,
        learned: "LearnedScores",
        budget: int,
        seed: SeedLike = None,
    ) -> CountEstimate:
        """Estimate ``C(O, q)`` reusing an already-learned score assignment.

        The learning phase was paid once by
        :func:`~repro.core.scores.learn_scores`; the whole ``budget`` goes to
        PPS sampling over the cached scores.  The ε floor keeps every object
        sampleable, so the Des Raj estimator stays unbiased even for sibling
        thresholds the classifier never saw — mismatched scores cost
        variance, never bias.  The learning set's exact labels under this
        query's threshold (via the predicate's value decomposition, zero
        oracle cost) enter as the additive ``count_offset``.
        """
        if budget < 2:
            raise ValueError("budget must be at least 2 predicate evaluations")
        rng = resolve_rng(seed)
        evaluations_before = query.evaluations

        labels = learned.labels_for(query)
        learning_positives = float(labels.sum())
        remaining = learned.remaining_indices
        if remaining.size == 0:
            return CountEstimate(
                count=learning_positives,
                proportion=float(labels.mean()) if labels.size else 0.0,
                population_size=int(labels.size),
                predicate_evaluations=query.evaluations - evaluations_before,
                method=self.method_name,
                count_offset=0.0,
                details={"degenerate": True},
            )

        sampler = WeightedSampling(floor=self.score_floor, confidence=self.confidence)
        with obs.stage("lws.sampling"):
            estimate = sampler.estimate(
                remaining,
                learned.scores,
                query.evaluate,
                sample_size=min(int(budget), remaining.size),
                seed=rng,
                method=self.method_name,
            )

        details = dict(
            estimate.details,
            learning_count=int(labels.size),
            learning_positives=learning_positives,
        )
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
