"""The shared learning phase of the learn-to-sample methods.

LWS and LSS (and optionally the quantification-learning estimators) start the
same way: spend part of the labelling budget on a random sample, evaluate the
expensive predicate to obtain labels, optionally augment the sample with
uncertainty-sampling active learning, and train a classifier whose scoring
function ``g`` is handed to the sampling phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.learning.active import augment_training_set
from repro.learning.base import Classifier
from repro.learning.forest import RandomForestClassifier
from repro.obs import trace as obs
from repro.query.counting import CountingQuery
from repro.sampling.rng import SeedLike, resolve_rng, sample_without_replacement


def default_classifier(seed: int | None = None) -> Classifier:
    """The library default classifier (a random forest, as in the paper)."""
    return RandomForestClassifier(n_estimators=40, max_depth=8, min_samples_leaf=3, seed=seed)


@dataclass
class LearningPhaseResult:
    """Outcome of the learning phase.

    Attributes:
        classifier: the fitted classifier.
        labelled_indices: the objects labelled during learning (``S_L``).
        labels: predicate outcomes for ``labelled_indices``.
        remaining_indices: the objects left for the sampling phase
            (``O \\ S_L``).
    """

    classifier: Classifier
    labelled_indices: np.ndarray
    labels: np.ndarray
    remaining_indices: np.ndarray

    @property
    def labelled_count(self) -> int:
        return int(self.labelled_indices.size)

    @property
    def positive_count(self) -> float:
        return float(self.labels.sum())


def run_learning_phase(
    query: CountingQuery,
    labelling_budget: int,
    classifier: Classifier | None = None,
    active_learning_rounds: int = 0,
    active_learning_fraction: float = 0.2,
    seed: SeedLike = None,
) -> LearningPhaseResult:
    """Label a random sample, optionally augment it, and train a classifier.

    Args:
        query: the counting query supplying objects, features and the
            expensive predicate.
        labelling_budget: number of predicate evaluations to spend here.
        classifier: classifier to train; the default random forest when
            omitted.
        active_learning_rounds: number of uncertainty-sampling augmentation
            rounds (0 disables active learning; the paper recommends 1).
        active_learning_fraction: fraction of the labelling budget reserved
            for the augmentation rounds.
        seed: RNG seed or generator.
    """
    if labelling_budget <= 0:
        raise ValueError("labelling_budget must be positive")
    if not 0.0 <= active_learning_fraction < 1.0:
        raise ValueError("active_learning_fraction must lie in [0, 1)")
    rng = resolve_rng(seed)
    objects = query.object_indices()
    labelling_budget = min(labelling_budget, objects.size)
    model = classifier if classifier is not None else default_classifier(
        seed=int(rng.integers(0, 2**31 - 1))
    )

    if active_learning_rounds > 0:
        augmentation_budget = int(round(active_learning_fraction * labelling_budget))
        augmentation_budget = min(augmentation_budget, labelling_budget - 1)
    else:
        augmentation_budget = 0
    initial_budget = labelling_budget - augmentation_budget

    # Inner spans are trace-only (obs.span, not obs.stage): their time is
    # already accounted to the enclosing estimator-level stage.
    with obs.span("learning.label"):
        initial_indices = sample_without_replacement(objects, initial_budget, seed=rng)
        initial_labels = query.evaluate(initial_indices)

    features = query.features()
    with obs.span("learning.train"):
        fitted = model.clone() if model.is_fitted else model
        fitted.fit(features[initial_indices], initial_labels)

    labelled_indices = initial_indices
    labels = initial_labels
    if augmentation_budget > 0 and active_learning_rounds > 0:
        per_round = max(augmentation_budget // active_learning_rounds, 1)
        result = augment_training_set(
            fitted,
            features,
            candidate_indices=objects,
            labelled_indices=labelled_indices,
            labels=labels,
            oracle=query.evaluate,
            batch_size=per_round,
            rounds=active_learning_rounds,
            seed=rng,
        )
        fitted = result.classifier
        labelled_indices = result.labelled_indices
        labels = result.labels

    remaining = np.setdiff1d(objects, labelled_indices, assume_unique=False)
    return LearningPhaseResult(
        classifier=fitted,
        labelled_indices=labelled_indices,
        labels=labels,
        remaining_indices=remaining,
    )
