"""The reusable learning-phase artifact: scores learned once, spent many times.

The paper's central asset is not any single estimate — it is the trained
classifier's score assignment over the table, which every query varying only
the threshold or budget can reuse.  :func:`learn_scores` runs the (expensive,
oracle-charged) learning phase exactly once and freezes everything the
LWS/LSS sampling phases need into an immutable :class:`LearnedScores`:

* the labelled learning set, its anchor-threshold labels, and — when the
  predicate thresholds an expensive per-object value — the raw *values*
  behind those labels, so sibling thresholds re-label the learning set
  exactly at zero additional oracle cost;
* the unlabelled remainder with its score assignment, plus the stable
  score-ordered view (:attr:`LearnedScores.ordered_objects` /
  :attr:`LearnedScores.sorted_scores`) LSS stratifies over.

:meth:`~repro.core.lss.LearnedStratifiedSampling.estimate_from_scores` and
:meth:`~repro.core.lws.LearnedWeightedSampling.estimate_from_scores` then
spend their whole budget on the sampling phase.  Reuse is sound because both
estimators consume scores only as a sampling design — a stale or mismatched
score assignment costs variance, never bias (Sections 4.1–4.2).

Determinism: :class:`LearnedScoresSpec` pins the learning seed, budget and
classifier, making the artifact a pure function of ``(workload, spec)`` —
the property the service layer's sweep fingerprints rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.learning_phase import run_learning_phase
from repro.query.counting import CountingQuery
from repro.sampling.rng import resolve_rng


@dataclass(frozen=True)
class LearnedScoresSpec:
    """Deterministic description of one learning phase (picklable, hashable).

    Attributes:
        learn_budget: oracle evaluations spent labelling the learning set.
        learn_seed: integer seed of the learning phase's private stream —
            independent of any per-trial estimate stream, so learning is a
            pure function of this spec no matter which requests arrive first.
        classifier_name: classifier as in
            :func:`repro.parallel.methods.classifier_factory` (``"rf"``,
            ``"knn"``, ``"nn"``, ``"random"``).
        active_learning_rounds / active_learning_fraction: uncertainty
            sampling, as in :func:`~repro.core.learning_phase.run_learning_phase`.
    """

    learn_budget: int
    learn_seed: int
    classifier_name: str = "rf"
    active_learning_rounds: int = 0
    active_learning_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.learn_budget < 2:
            raise ValueError("learn_budget must be at least 2 evaluations")


@dataclass(frozen=True)
class LearnedScores:
    """Frozen outcome of one learning phase, ready for cross-query reuse.

    Attributes:
        spec: the :class:`LearnedScoresSpec` that produced this artifact.
        labelled_indices: the learning set ``S_L``.
        labels: anchor-threshold labels of ``S_L`` (the labels the classifier
            was trained on).
        labelled_values: raw predicate values behind those labels (``None``
            when the predicate has no value decomposition); with them, any
            sibling threshold's exact ``S_L`` labels are a free comparison.
        remaining_indices: the unlabelled objects ``O \\ S_L``.
        scores: classifier scores aligned with ``remaining_indices`` (the
            LWS size measures).
        ordered_objects: ``remaining_indices`` stably sorted by score (the
            LSS stratification axis).
        sorted_scores: scores in the same order.
        oracle_calls: predicate evaluations charged by the learning phase.
    """

    spec: LearnedScoresSpec
    labelled_indices: np.ndarray
    labels: np.ndarray
    labelled_values: np.ndarray | None
    remaining_indices: np.ndarray
    scores: np.ndarray
    ordered_objects: np.ndarray
    sorted_scores: np.ndarray
    oracle_calls: int = field(default=0)

    def labels_for(self, query: CountingQuery) -> np.ndarray:
        """Exact labels of the learning set under ``query``'s threshold.

        Computed from the cached raw values when available (zero oracle
        cost, exact for every sibling threshold over the same value
        function); otherwise falls back to the anchor labels, which is only
        correct when ``query`` *is* the anchor query — the caller asserts
        that, exactly as with :meth:`CountingQuery.attach_label_cache`.
        """
        if self.labelled_values is not None and query.predicate.supports_values:
            return query.predicate.labels_from_values(self.labelled_values)
        return self.labels


def learn_scores(query: CountingQuery, spec: LearnedScoresSpec) -> LearnedScores:
    """Run the learning phase once and freeze its reusable outcome.

    The oracle cost (``spec.learn_budget`` evaluations) is charged to
    ``query``'s accounting like any learning phase; everything downstream of
    this call is oracle-free until a sampling phase spends its own budget.
    The classifier seed is drawn from the spec's stream exactly as
    :meth:`~repro.parallel.methods.MethodSpec.build_trial_function` draws it,
    so a scores artifact is reproducible from the spec alone.
    """
    # Lazy import: core must not depend on the parallel layer at import time.
    from repro.parallel.methods import classifier_factory

    rng = resolve_rng(spec.learn_seed)
    classifier = classifier_factory(spec.classifier_name, seed=int(rng.integers(2**31 - 1)))
    evaluations_before = query.evaluations
    learning = run_learning_phase(
        query,
        spec.learn_budget,
        classifier=classifier,
        active_learning_rounds=spec.active_learning_rounds,
        active_learning_fraction=spec.active_learning_fraction,
        seed=rng,
    )
    remaining = learning.remaining_indices
    scores = learning.classifier.predict_scores(query.features(remaining))
    order = np.argsort(scores, kind="stable")
    labelled_values = None
    if query.predicate.supports_values:
        # The expensive per-object values were already paid for through
        # ``evaluate`` above; extracting them again is the free half of the
        # predicate and is deliberately not charged (see
        # CountingQuery.predicate_values).
        labelled_values = query.predicate_values(learning.labelled_indices)
    return LearnedScores(
        spec=spec,
        labelled_indices=learning.labelled_indices,
        labels=learning.labels,
        labelled_values=labelled_values,
        remaining_indices=remaining,
        scores=scores,
        ordered_objects=remaining[order],
        sorted_scores=scores[order],
        oracle_calls=query.evaluations - evaluations_before,
    )
