"""Tests for the shared learning phase of the learn-to-sample methods."""

import numpy as np
import pytest

from repro.core.learning_phase import default_classifier, run_learning_phase
from repro.learning.forest import RandomForestClassifier
from repro.learning.knn import KNeighborsClassifier


class TestDefaultClassifier:
    def test_is_a_random_forest(self):
        assert isinstance(default_classifier(seed=0), RandomForestClassifier)

    def test_seed_controls_reproducibility(self, separable_data):
        features, labels = separable_data
        first = default_classifier(seed=1)
        second = default_classifier(seed=1)
        first.fit(features, labels)
        second.fit(features, labels)
        assert np.allclose(first.predict_scores(features), second.predict_scores(features))


class TestRunLearningPhase:
    def test_disjoint_partition_of_objects(self, threshold_query):
        result = run_learning_phase(threshold_query, 50, seed=0)
        labelled = set(result.labelled_indices.tolist())
        remaining = set(result.remaining_indices.tolist())
        assert labelled.isdisjoint(remaining)
        assert len(labelled) + len(remaining) == threshold_query.num_objects

    def test_labels_match_ground_truth(self, threshold_query):
        result = run_learning_phase(threshold_query, 50, seed=1)
        truth = threshold_query.ground_truth_labels()
        assert np.array_equal(result.labels, truth[result.labelled_indices])
        assert result.positive_count == truth[result.labelled_indices].sum()

    def test_custom_classifier_used(self, threshold_query):
        result = run_learning_phase(
            threshold_query, 60, classifier=KNeighborsClassifier(n_neighbors=3), seed=2
        )
        assert isinstance(result.classifier, KNeighborsClassifier)

    def test_budget_clamped_to_population(self, threshold_query):
        result = run_learning_phase(threshold_query, 10_000, seed=3)
        assert result.labelled_count == threshold_query.num_objects
        assert result.remaining_indices.size == 0

    def test_active_learning_adds_boundary_objects(self, threshold_query):
        plain = run_learning_phase(threshold_query, 80, seed=4)
        augmented = run_learning_phase(
            threshold_query, 80, active_learning_rounds=1, active_learning_fraction=0.3, seed=4
        )
        assert augmented.labelled_count == plain.labelled_count == 80

    def test_invalid_active_fraction(self, threshold_query):
        with pytest.raises(ValueError):
            run_learning_phase(threshold_query, 20, active_learning_fraction=1.0)
